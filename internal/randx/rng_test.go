package randx

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d; same seed must give same stream", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical draws", same)
	}
}

func TestSplitAdvancesParent(t *testing.T) {
	a := New(9)
	b := New(9)
	c1 := a.Split()
	c2 := a.Split()
	_ = b
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("two successive splits produced identical children")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := Float64(r)
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Float64(r)
	}
	mean := sum / n
	// Standard error is about 0.00065; allow 5 sigma.
	if math.Abs(mean-0.5) > 0.0033 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(5)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := Uint64n(r, n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(6)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[Uint64n(r, n)]++
	}
	for i, c := range counts {
		// Expected 10000, sd ~95; 5 sigma window.
		if c < 9500 || c > 10500 {
			t.Fatalf("bucket %d has %d draws, want ~10000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	r := New(7)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	Intn(r, 0)
}

func TestUniformIntRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		v := UniformInt(r, 6)
		if v < 1 || v > 6 {
			t.Fatalf("UniformInt(6) = %d outside {1..6}", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if Bernoulli(r, -0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !Bernoulli(r, 1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(10)
	const p = 0.3
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if Bernoulli(r, p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestShuffleEmptyAndSingle(t *testing.T) {
	r := New(15)
	Shuffle(r, 0, func(i, j int) { t.Fatal("swap called for n=0") })
	Shuffle(r, 1, func(i, j int) { t.Fatal("swap called for n=1") })
}

func BenchmarkRNGUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Float64(r)
	}
	_ = sink
}
