package core

import (
	"math"
	"testing"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// buildHist constructs a histogram from (value, count) pairs.
func buildHist(pairs ...int64) *histogram.Histogram[int64] {
	if len(pairs)%2 != 0 {
		panic("buildHist: odd argument count")
	}
	h := histogram.New[int64](histogram.DefaultSizeModel)
	for i := 0; i < len(pairs); i += 2 {
		h.Insert(pairs[i], pairs[i+1])
	}
	return h
}

func TestPurgeBernoulliNoOpAtQ1(t *testing.T) {
	r := randx.New(1)
	h := buildHist(1, 5, 2, 3)
	PurgeBernoulli(h, 1, r)
	if h.Size() != 8 {
		t.Fatalf("q=1 purge changed size to %d", h.Size())
	}
	PurgeBernoulli(h, 1.5, r)
	if h.Size() != 8 {
		t.Fatalf("q>1 purge changed size to %d", h.Size())
	}
}

func TestPurgeBernoulliEmptiesAtQ0(t *testing.T) {
	r := randx.New(2)
	h := buildHist(1, 5, 2, 3)
	PurgeBernoulli(h, 0, r)
	if h.Size() != 0 || h.Distinct() != 0 {
		t.Fatalf("q=0 purge left %v", h)
	}
}

func TestPurgeBernoulliExpectedSize(t *testing.T) {
	r := randx.New(3)
	const trials = 5000
	const q = 0.3
	var total int64
	for i := 0; i < trials; i++ {
		h := buildHist(1, 10, 2, 10, 3, 10, 4, 10)
		PurgeBernoulli(h, q, r)
		total += h.Size()
	}
	got := float64(total) / trials
	want := 40 * q
	// SE = sqrt(40·q(1−q)/trials) ≈ 0.041; 5 sigma.
	if math.Abs(got-want) > 0.25 {
		t.Fatalf("mean purged size = %v, want %v", got, want)
	}
}

func TestPurgeBernoulliPerElementUniform(t *testing.T) {
	// Every element must survive with the same probability regardless of
	// whether it sits in a big or small count.
	r := randx.New(4)
	const trials = 30000
	const q = 0.5
	var bigSurvive, smallSurvive int64
	for i := 0; i < trials; i++ {
		h := buildHist(1, 100, 2, 1)
		PurgeBernoulli(h, q, r)
		bigSurvive += h.Count(1)
		smallSurvive += h.Count(2)
	}
	bigRate := float64(bigSurvive) / (100 * trials)
	smallRate := float64(smallSurvive) / trials
	if math.Abs(bigRate-q) > 0.01 {
		t.Errorf("large-count survival rate = %v, want %v", bigRate, q)
	}
	if math.Abs(smallRate-q) > 0.015 {
		t.Errorf("singleton survival rate = %v, want %v", smallRate, q)
	}
}

func TestPurgeReservoirExactSize(t *testing.T) {
	r := randx.New(5)
	for _, m := range []int64{1, 2, 5, 19, 39} {
		h := buildHist(1, 10, 2, 10, 3, 10, 4, 10)
		PurgeReservoir(h, m, r)
		if h.Size() != m {
			t.Fatalf("purge to %d left %d elements", m, h.Size())
		}
	}
}

func TestPurgeReservoirNoOpWhenSmall(t *testing.T) {
	r := randx.New(6)
	h := buildHist(1, 3, 2, 2)
	PurgeReservoir(h, 5, r)
	if h.Size() != 5 || h.Count(1) != 3 || h.Count(2) != 2 {
		t.Fatalf("no-op purge mutated histogram: %v", h.Entries())
	}
	PurgeReservoir(h, 10, r)
	if h.Size() != 5 {
		t.Fatalf("m>size purge mutated histogram: %v", h.Entries())
	}
}

func TestPurgeReservoirToZero(t *testing.T) {
	r := randx.New(7)
	h := buildHist(1, 3)
	PurgeReservoir(h, 0, r)
	if h.Size() != 0 {
		t.Fatalf("m=0 purge left %d", h.Size())
	}
}

func TestPurgeReservoirNegativePanics(t *testing.T) {
	r := randx.New(8)
	h := buildHist(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("negative m did not panic")
		}
	}()
	PurgeReservoir(h, -1, r)
}

func TestPurgeReservoirPerElementUniform(t *testing.T) {
	// Elements from all entries must be retained with probability m/|S|,
	// independent of entry position or count.
	r := randx.New(9)
	const trials = 30000
	const m = 10
	counts := map[int64]int64{}
	var totalSize int64 = 40
	for i := 0; i < trials; i++ {
		h := buildHist(1, 17, 2, 1, 3, 2, 4, 20)
		PurgeReservoir(h, m, r)
		for _, e := range h.Entries() {
			counts[e.Value] += e.Count
		}
	}
	wantRate := float64(m) / float64(totalSize)
	for _, c := range []struct {
		v, n int64
	}{{1, 17}, {2, 1}, {3, 2}, {4, 20}} {
		got := float64(counts[c.v]) / float64(c.n*trials)
		// Binomial SE per element ≈ sqrt(p(1−p)/(n·trials)).
		se := math.Sqrt(wantRate * (1 - wantRate) / float64(c.n*trials))
		if math.Abs(got-wantRate) > 6*se+0.002 {
			t.Errorf("value %d retention rate = %v, want %v (se %v)", c.v, got, wantRate, se)
		}
	}
}

func TestPurgeReservoirSubsetUniformity(t *testing.T) {
	// Strongest check: purge a 5-element all-distinct histogram to 2 and
	// verify all C(5,2)=10 subsets appear equally often.
	r := randx.New(10)
	const trials = 50000
	counts := map[[2]int64]int64{}
	for i := 0; i < trials; i++ {
		h := buildHist(1, 1, 2, 1, 3, 1, 4, 1, 5, 1)
		PurgeReservoir(h, 2, r)
		h.Sort()
		es := h.Entries()
		if len(es) != 2 {
			t.Fatalf("purge produced %d entries", len(es))
		}
		counts[[2]int64{es[0].Value, es[1].Value}]++
	}
	want := float64(trials) / 10
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("subset %v appeared %d times, want ~%.0f", k, c, want)
		}
	}
	if len(counts) != 10 {
		t.Errorf("only %d distinct subsets observed, want 10", len(counts))
	}
}

func TestPurgeReservoirWithDuplicatesMultisetUniformity(t *testing.T) {
	// Population {a,a,b}: SRS of size 2 yields {a,a} w.p. 1/3 and {a,b}
	// w.p. 2/3.
	r := randx.New(11)
	const trials = 60000
	var aa, ab int64
	for i := 0; i < trials; i++ {
		h := buildHist(1, 2, 2, 1)
		PurgeReservoir(h, 2, r)
		switch {
		case h.Count(1) == 2:
			aa++
		case h.Count(1) == 1 && h.Count(2) == 1:
			ab++
		default:
			t.Fatalf("impossible outcome: %v", h.Entries())
		}
	}
	gotAA := float64(aa) / trials
	if math.Abs(gotAA-1.0/3) > 0.01 {
		t.Errorf("P{{a,a}} = %v, want 1/3", gotAA)
	}
	if aa+ab != trials {
		t.Errorf("outcomes do not partition: %d + %d != %d", aa, ab, trials)
	}
}

func TestPurgeDeterministicForSeed(t *testing.T) {
	h1 := buildHist(1, 100, 2, 50, 3, 25)
	h2 := buildHist(1, 100, 2, 50, 3, 25)
	PurgeReservoir(h1, 30, randx.New(99))
	PurgeReservoir(h2, 30, randx.New(99))
	if !h1.Equal(h2) {
		t.Fatal("same seed produced different purge results")
	}
}

func BenchmarkPurgeBernoulli(b *testing.B) {
	r := randx.New(1)
	src := buildHist()
	for v := int64(0); v < 4096; v++ {
		src.Insert(v, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := src.Clone()
		PurgeBernoulli(h, 0.5, r)
	}
}

func BenchmarkPurgeReservoirCompact(b *testing.B) {
	r := randx.New(1)
	src := buildHist()
	for v := int64(0); v < 4096; v++ {
		src.Insert(v, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := src.Clone()
		PurgeReservoir(h, 8192, r)
	}
}

// BenchmarkPurgeExpandThenSample is the ablation baseline for
// purgeReservoir: expand the histogram to a bag, shuffle-select, rebuild.
func BenchmarkPurgeExpandThenSample(b *testing.B) {
	r := randx.New(1)
	src := buildHist()
	for v := int64(0); v < 4096; v++ {
		src.Insert(v, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := src.Clone()
		bag := h.Expand()
		// Partial Fisher-Yates selection of 8192 elements.
		for j := 0; j < 8192; j++ {
			k := j + randx.Intn(r, len(bag)-j)
			bag[j], bag[k] = bag[k], bag[j]
		}
		_ = histogram.FromBag(histogram.DefaultSizeModel, bag[:8192])
	}
}
