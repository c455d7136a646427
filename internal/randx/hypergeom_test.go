package randx

import (
	"math"
	"testing"
	"testing/quick"

	"samplewh/internal/stats"
)

// hgExact computes the hypergeometric pmf from log-binomials for testing.
func hgExact(n1, n2, k, l int64) float64 {
	return math.Exp(LogChoose(n1, l) + LogChoose(n2, k-l) - LogChoose(n1+n2, k))
}

func TestHypergeomPMFMatchesExact(t *testing.T) {
	cases := []struct{ n1, n2, k int64 }{
		{10, 10, 5},
		{3, 7, 6},
		{100, 1, 50},
		{1, 100, 50},
		{1000, 2000, 100},
		{5, 5, 10}, // full draw: P(5) = 1
	}
	for _, c := range cases {
		d := NewHypergeom(c.n1, c.n2, c.k)
		lo, hi := d.Support()
		var sum float64
		for l := lo; l <= hi; l++ {
			want := hgExact(c.n1, c.n2, c.k, l)
			got := d.PMF(l)
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("PMF(%d,%d,%d at %d) = %v, want %v", c.n1, c.n2, c.k, l, got, want)
			}
			sum += got
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("pmf for %+v sums to %v", c, sum)
		}
		if got := d.PMF(lo - 1); got != 0 {
			t.Errorf("PMF outside support = %v", got)
		}
		if got := d.PMF(hi + 1); got != 0 {
			t.Errorf("PMF outside support = %v", got)
		}
	}
}

func TestHypergeomLargeParametersStable(t *testing.T) {
	// Parameters like the paper's experiments: two 2^25-element partitions,
	// merged sample of 8192. Direct binomial-coefficient evaluation would
	// overflow; the mode-centred recurrence must stay finite and normalized.
	d := NewHypergeom(1<<25, 1<<25, 8192)
	lo, hi := d.Support()
	var sum float64
	for l := lo; l <= hi; l++ {
		p := d.PMF(l)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("PMF(%d) = %v", l, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pmf sums to %v", sum)
	}
	if mean := d.Mean(); math.Abs(mean-4096) > 1e-6 {
		t.Fatalf("mean = %v, want 4096", mean)
	}
}

func TestHypergeomSupport(t *testing.T) {
	d := NewHypergeom(3, 7, 8)
	lo, hi := d.Support()
	if lo != 1 || hi != 3 {
		t.Fatalf("support = [%d,%d], want [1,3]", lo, hi)
	}
}

func TestHypergeomInvalidPanics(t *testing.T) {
	for _, c := range []struct{ n1, n2, k int64 }{
		{-1, 5, 2}, {5, -1, 2}, {5, 5, -1}, {5, 5, 11},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHypergeom(%+v) did not panic", c)
				}
			}()
			NewHypergeom(c.n1, c.n2, c.k)
		}()
	}
}

func TestHypergeomSampleMoments(t *testing.T) {
	r := New(30)
	d := NewHypergeom(300, 700, 100)
	const draws = 100000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		x := float64(d.Sample(r))
		sum += x
		sumsq += x * x
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	wantMean := 100.0 * 300 / 1000
	// Var = k·(n1/N)·(n2/N)·(N−k)/(N−1)
	wantVar := 100.0 * 0.3 * 0.7 * (1000 - 100) / 999
	if math.Abs(mean-wantMean) > 0.1 {
		t.Errorf("sample mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Errorf("sample variance = %v, want %v", variance, wantVar)
	}
}

func TestHypergeomSampleChiSquare(t *testing.T) {
	r := New(31)
	d := NewHypergeom(12, 8, 10)
	lo, hi := d.Support()
	const draws = 200000
	counts := make(map[int64]int64)
	for i := 0; i < draws; i++ {
		l := d.Sample(r)
		if l < lo || l > hi {
			t.Fatalf("sample %d outside support [%d,%d]", l, lo, hi)
		}
		counts[l]++
	}
	var chi2 float64
	cells := 0
	for l := lo; l <= hi; l++ {
		e := d.PMF(l) * draws
		if e < 1 {
			continue
		}
		diff := float64(counts[l]) - e
		chi2 += diff * diff / e
		cells++
	}
	// Generous bound: df ~ cells−1 ≤ 10, P{chi2 > 40} is negligible.
	if chi2 > 40 {
		t.Fatalf("inversion sampler chi2 = %v over %d cells", chi2, cells)
	}
}

func TestHypergeomSampleLinearMatchesDistribution(t *testing.T) {
	r := New(32)
	d := NewHypergeom(10, 10, 6)
	const draws = 100000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(d.SampleLinear(r))
	}
	if mean := sum / draws; math.Abs(mean-3) > 0.05 {
		t.Fatalf("linear-scan sampler mean = %v, want 3", mean)
	}
}

func TestAliasTableMatchesPMF(t *testing.T) {
	r := New(33)
	d := NewHypergeom(15, 25, 12)
	at := d.Alias()
	lo, hi := d.Support()
	const draws = 200000
	counts := make(map[int64]int64)
	for i := 0; i < draws; i++ {
		l := at.Sample(r)
		if l < lo || l > hi {
			t.Fatalf("alias sample %d outside support [%d,%d]", l, lo, hi)
		}
		counts[l]++
	}
	var chi2 float64
	for l := lo; l <= hi; l++ {
		e := d.PMF(l) * draws
		if e < 1 {
			continue
		}
		diff := float64(counts[l]) - e
		chi2 += diff * diff / e
	}
	if chi2 > 45 {
		t.Fatalf("alias sampler chi2 = %v", chi2)
	}
}

func TestAliasTableDegenerate(t *testing.T) {
	r := New(34)
	at := NewAliasTable([]float64{1}, 5)
	for i := 0; i < 100; i++ {
		if got := at.Sample(r); got != 5 {
			t.Fatalf("degenerate alias sample = %d, want 5", got)
		}
	}
	if at.Len() != 1 {
		t.Fatalf("Len = %d", at.Len())
	}
}

func TestAliasTablePanics(t *testing.T) {
	for _, pmf := range [][]float64{{}, {0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAliasTable(%v) did not panic", pmf)
				}
			}()
			NewAliasTable(pmf, 0)
		}()
	}
}

func TestHypergeomRecurrenceProperty(t *testing.T) {
	// Property: P satisfies the paper's recurrence (3) everywhere inside the
	// support, for random parameters.
	check := func(a, b, kk uint16) bool {
		n1 := int64(a%500) + 1
		n2 := int64(b%500) + 1
		k := int64(kk) % (n1 + n2)
		if k == 0 {
			k = 1
		}
		d := NewHypergeom(n1, n2, k)
		lo, hi := d.Support()
		for l := lo; l < hi; l++ {
			lhs := d.PMF(l + 1)
			rhs := d.PMF(l) * float64(k-l) * float64(n1-l) /
				(float64(l+1) * float64(n2-k+l+1))
			if math.Abs(lhs-rhs) > 1e-9*math.Max(lhs, 1e-30) && math.Abs(lhs-rhs) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHypergeometricOneShot(t *testing.T) {
	r := New(35)
	for i := 0; i < 1000; i++ {
		l := Hypergeometric(r, 5, 5, 4)
		if l < 0 || l > 4 {
			t.Fatalf("Hypergeometric sample %d out of range", l)
		}
	}
}

// TestHypergeometricOneShotMatchesPMF holds the table-free one-shot draw to
// the tabulated pmf: chi-square over the cells with expected count >= 5, the
// two tails pooled. The seeds are fixed, so a failure reproduces.
func TestHypergeometricOneShotMatchesPMF(t *testing.T) {
	const draws = 100000
	for _, c := range []struct{ n1, n2, k int64 }{
		{65536, 983040, 8192}, // the 16-partition merge's first draw
		{10, 5, 7},
		{1, 1, 1},
		{12, 8, 10},
		{3, 100000, 50000},
	} {
		const seed = 77
		r := New(seed)
		d := NewHypergeom(c.n1, c.n2, c.k)
		lo, hi := d.Support()
		counts := make(map[int64]int64)
		for i := 0; i < draws; i++ {
			l := Hypergeometric(r, c.n1, c.n2, c.k)
			if l < lo || l > hi {
				t.Fatalf("seed %d: Hypergeometric(%d,%d,%d) = %d outside [%d,%d]", seed, c.n1, c.n2, c.k, l, lo, hi)
			}
			counts[l]++
		}
		var obs []int64
		var exp []float64
		var tailObs int64
		var tailExp float64
		for l := lo; l <= hi; l++ {
			if e := d.PMF(l) * draws; e >= 5 {
				obs, exp = append(obs, counts[l]), append(exp, e)
			} else {
				tailObs, tailExp = tailObs+counts[l], tailExp+e
			}
		}
		if tailExp >= 1 {
			obs, exp = append(obs, tailObs), append(exp, tailExp)
		} else if float64(tailObs) > 10 {
			t.Errorf("seed %d: (%d,%d,%d): %d draws in tails of expected mass %g", seed, c.n1, c.n2, c.k, tailObs, tailExp)
		}
		res, err := stats.ChiSquareGOF(obs, exp, 0)
		if err != nil {
			t.Fatalf("(%d,%d,%d): %v", c.n1, c.n2, c.k, err)
		}
		if res.Reject(1e-4) {
			t.Errorf("seed %d: Hypergeometric(%d,%d,%d) does not follow its pmf: %v", seed, c.n1, c.n2, c.k, res)
		}
	}
}

// A one-point support returns its only value and still consumes exactly one
// uniform, so a stream stays aligned whatever the parameters.
func TestHypergeometricDegenerate(t *testing.T) {
	for _, c := range []struct{ n1, n2, k, want int64 }{
		{7, 5, 12, 7}, // k = n1+n2: everything is taken
		{7, 5, 0, 0},
		{0, 5, 3, 0},
		{4, 0, 3, 3},
		{0, 0, 0, 0},
	} {
		r, ref := New(5), New(5)
		if got := Hypergeometric(r, c.n1, c.n2, c.k); got != c.want {
			t.Errorf("Hypergeometric(%d,%d,%d) = %d, want %d", c.n1, c.n2, c.k, got, c.want)
		}
		ref.Uint64()
		if r.Uint64() != ref.Uint64() {
			t.Errorf("Hypergeometric(%d,%d,%d) did not consume exactly one uniform", c.n1, c.n2, c.k)
		}
	}
}

func BenchmarkHypergeometricOneShot(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hypergeometric(r, 65536, 983040, 8192)
	}
}

func BenchmarkHypergeomBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewHypergeom(1<<20, 1<<20, 8192)
	}
}

func BenchmarkHypergeomSampleInversion(b *testing.B) {
	r := New(1)
	d := NewHypergeom(1<<20, 1<<20, 8192)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += d.Sample(r)
	}
	_ = sink
}

func BenchmarkHypergeomSampleLinear(b *testing.B) {
	r := New(1)
	d := NewHypergeom(1<<20, 1<<20, 8192)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += d.SampleLinear(r)
	}
	_ = sink
}

func BenchmarkHypergeomSampleAlias(b *testing.B) {
	r := New(1)
	at := NewHypergeom(1<<20, 1<<20, 8192).Alias()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += at.Sample(r)
	}
	_ = sink
}
