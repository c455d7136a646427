package randx

import (
	"math"
	"testing"
)

func TestZipfPMFSumsToOne(t *testing.T) {
	for _, c := range []struct {
		v int64
		s float64
	}{{1, 1}, {10, 1}, {4000, 1}, {100, 0.5}, {100, 2}} {
		z := NewZipf(c.v, c.s)
		var sum float64
		for i := int64(1); i <= c.v; i++ {
			sum += z.PMF(i)
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Errorf("Zipf(%d,%v) pmf sums to %v", c.v, c.s, sum)
		}
	}
}

func TestZipfPMFRatios(t *testing.T) {
	// P(1)/P(2) = 2^s for a Zipf(s) law.
	z := NewZipf(1000, 1.5)
	ratio := z.PMF(1) / z.PMF(2)
	if math.Abs(ratio-math.Pow(2, 1.5)) > 1e-9 {
		t.Errorf("P(1)/P(2) = %v, want %v", ratio, math.Pow(2, 1.5))
	}
	if z.PMF(0) != 0 || z.PMF(1001) != 0 {
		t.Error("PMF outside support is nonzero")
	}
}

func TestZipfSampleRange(t *testing.T) {
	r := New(50)
	z := NewZipf(4000, 1)
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 4000 {
			t.Fatalf("Zipf sample %d outside [1,4000]", v)
		}
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	r := New(51)
	z := NewZipf(100, 1)
	const draws = 200000
	counts := make([]int64, 101)
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for _, i := range []int64{1, 2, 5, 10, 50} {
		want := z.PMF(i) * draws
		got := float64(counts[i])
		if math.Abs(got-want) > 5*math.Sqrt(want)+1 {
			t.Errorf("value %d drawn %v times, want ~%v", i, got, want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		v int64
		s float64
	}{{0, 1}, {-5, 1}, {10, 0}, {10, -1}, {10, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%v) did not panic", c.v, c.s)
				}
			}()
			NewZipf(c.v, c.s)
		}()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(4000, 1)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += z.Sample(r)
	}
	_ = sink
}
