package estimate

import (
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

const z95 = 1.959963984540054

// bounded composes the design of a read that merged s out of total requested
// rows, provenZero of them proven to hold no match: its fraction with frac set,
// its count otherwise.
func bounded(t *testing.T, s *core.Sample[int64], pred func(int64) bool, z float64, total, provenZero int64, frac bool) Estimate {
	t.Helper()
	e, err := Interval(Planned(s, total, provenZero), pred, frac, z)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func stratum(t *testing.T, kind core.Kind, parent int64, values map[int64]int64) *core.Sample[int64] {
	t.Helper()
	h := histogram.New[int64](histogram.SizeModel{ValueBytes: 8, CountBytes: 8})
	for v, c := range values {
		h.Insert(v, c)
	}
	return &core.Sample[int64]{Kind: kind, Hist: h, ParentSize: parent, Q: 1}
}

func TestBoundedFractionFullCoverageIsFraction(t *testing.T) {
	s := reservoirSample(t, 7, 2000, 256)
	pred := func(v int64) bool { return v < 1000 }
	plain, err := New(s).Fraction(pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int64{0, s.ParentSize - 1, s.ParentSize} {
		if got := bounded(t, s, pred, z95, total, 0, true); got != plain {
			t.Fatalf("totalPop %d: bounded %+v != plain %+v", total, got, plain)
		}
	}
}

func TestBoundedFractionPartialCoverage(t *testing.T) {
	// The sample covers 2000 of 8000 requested elements (w = 1/4); half the
	// covered union matches the predicate.
	s := reservoirSample(t, 7, 2000, 256)
	pred := func(v int64) bool { return v < 1000 }
	covered, err := New(s).Fraction(pred)
	if err != nil {
		t.Fatal(err)
	}
	const total = 8000
	got := bounded(t, s, pred, z95, total, 0, true)
	w := float64(s.ParentSize) / total
	if got.Lo != w*covered.Lo || got.Hi != w*covered.Hi+(1-w) {
		t.Fatalf("interval %v..%v, want %v..%v", got.Lo, got.Hi, w*covered.Lo, w*covered.Hi+(1-w))
	}
	if got.Exact {
		t.Fatal("partial coverage cannot be exact")
	}
	// The interval must admit both extremes of the uncovered remainder:
	// true fraction is at least w·p_cov (no uncovered match) and at most
	// w·p_cov + (1−w) (every uncovered element matches).
	pCov := 0.5 // true covered selectivity
	if got.Lo > w*pCov || got.Hi < w*pCov+(1-w)-0.1 {
		t.Fatalf("interval %v..%v too narrow for the uncovered remainder", got.Lo, got.Hi)
	}
}

func TestBoundedHalfWidthMonotoneInCoverage(t *testing.T) {
	// Fixing the sample and growing the uncovered remainder must widen the
	// interval: loading more partitions (raising coverage) always buys a
	// tighter bounded answer.
	s := reservoirSample(t, 11, 2000, 256)
	pred := func(v int64) bool { return v < 500 }
	prev := -1.0
	for _, total := range []int64{2000, 2500, 4000, 8000, 100000} {
		hw := HalfWidth(bounded(t, s, pred, z95, total, 0, true))
		if hw < prev {
			t.Fatalf("half-width %v at totalPop %d shrank below %v", hw, total, prev)
		}
		prev = hw
	}
}

func TestBoundedCountScalesFraction(t *testing.T) {
	s := reservoirSample(t, 3, 2000, 256)
	pred := func(v int64) bool { return v < 1000 }
	const total = 6000
	frac := bounded(t, s, pred, z95, total, 0, true)
	cnt := bounded(t, s, pred, z95, total, 0, false)
	if cnt.Value != frac.Value*total || cnt.Lo != frac.Lo*total || cnt.Hi != frac.Hi*total {
		t.Fatalf("count %+v does not scale fraction %+v by %d", cnt, frac, total)
	}
	if HalfWidth(cnt)/total != HalfWidth(frac) {
		t.Fatalf("fraction-scale count half-width %v != %v", HalfWidth(cnt)/total, HalfWidth(frac))
	}
}

func TestProxyHalfWidthUpperBoundsBoundedFraction(t *testing.T) {
	// The proxy uses the worst-case p = 1/2 proportion variance, so for any
	// predicate the real bounded interval must be at least as tight.
	s := reservoirSample(t, 9, 2000, 256)
	for _, total := range []int64{2000, 4000, 16000} {
		proxy := ProxyWidth(s.Size(), s.ParentSize, 0, total, z95)
		for _, cut := range []int64{100, 500, 1000, 1900} {
			hw := HalfWidth(bounded(t, s, func(v int64) bool { return v < cut }, z95, total, 0, true))
			if hw > proxy+1e-12 {
				t.Fatalf("totalPop %d pred <%d: half-width %v exceeds proxy %v", total, cut, hw, proxy)
			}
		}
	}
}

func TestProxyHalfWidthProperties(t *testing.T) {
	// No population at all: nothing to answer for.
	if hw := ProxyWidth(0, 0, 0, 0, 1.96); !math.IsInf(hw, 1) {
		t.Fatalf("empty design half-width %v, want +Inf", hw)
	}
	// Nothing covered or proven: all of it is ignored, worth the whole [0, 1].
	if hw := ProxyWidth(0, 0, 0, 1000, 1.96); hw != 0.5 {
		t.Fatalf("all-ignored half-width %v, want 0.5", hw)
	}
	// Exhaustive full coverage: zero width.
	if hw := ProxyWidth(1000, 1000, 0, 1000, 1.96); hw != 0 {
		t.Fatalf("exhaustive half-width %v, want 0", hw)
	}
	// Monotone decreasing as coverage grows with the merged size held fixed.
	prev := math.Inf(1)
	for covered := int64(1000); covered <= 8000; covered += 1000 {
		hw := ProxyWidth(256, covered, 0, 8000, 1.96)
		if hw >= prev {
			t.Fatalf("coverage %d did not tighten the proxy (%v >= %v)", covered, hw, prev)
		}
		prev = hw
	}
	// A bigger merged sample never widens the interval.
	if ProxyWidth(512, 4000, 0, 8000, 1.96) > ProxyWidth(128, 4000, 0, 8000, 1.96) {
		t.Fatal("larger sample widened the proxy interval")
	}
	if _, err := ZCrit(0.5); err == nil {
		t.Fatal("ZCrit accepted unsupported confidence")
	}
	if z, err := ZCrit(0.95); err != nil || math.Abs(z-1.96) > 0.01 {
		t.Fatalf("ZCrit(0.95) = %v, %v", z, err)
	}
}

// A bounded answer's value sits inside its own interval, whatever the sample,
// the predicate, the requested population and the proven-zero share of it;
// the interval stays inside [0, 1]; and at full coverage it is the plain
// estimate, bit for bit.
func TestBoundedValueInsideItsInterval(t *testing.T) {
	src := randx.New(2006)
	for trial := 0; trial < 400; trial++ {
		rows := int64(200 + src.Uint64()%5000)
		s := reservoirSample(t, src.Uint64(), rows, int64(16+src.Uint64()%256))
		cut := int64(src.Uint64() % uint64(rows+rows/4)) // now and then nothing, or everything, matches
		pred := func(v int64) bool { return v < cut }
		conf := []float64{0.90, 0.95, 0.99}[src.Uint64()%3]
		plain, err := NewWithConfidence(s, conf)
		if err != nil {
			t.Fatal(err)
		}
		wantFrac, _ := plain.Fraction(pred)

		total := s.ParentSize + int64(src.Uint64()%uint64(4*rows))
		provenZero := int64(0)
		if trial%2 == 1 {
			provenZero = int64(src.Uint64() % uint64(total-s.ParentSize+rows)) // may exceed what is uncovered
		}
		frac := bounded(t, s, pred, plain.z, total, provenZero, true)
		count := bounded(t, s, pred, plain.z, total, provenZero, false)
		if !(0 <= frac.Lo && frac.Lo <= frac.Value && frac.Value <= frac.Hi && frac.Hi <= 1) {
			t.Fatalf("trial %d (covered %d of %d, %d proven zero): fraction %+v is not 0 ≤ lo ≤ value ≤ hi ≤ 1",
				trial, s.ParentSize, total, provenZero, frac)
		}
		n := float64(Planned(s, total, provenZero).Pop())
		if count.Value != frac.Value*n || count.Lo != frac.Lo*n || count.Hi != frac.Hi*n || count.StdErr != frac.StdErr*n {
			t.Fatalf("trial %d: count %+v is not fraction %+v scaled by %v", trial, count, frac, n)
		}
		if n > float64(s.ParentSize) {
			// Centred where the documented half-width w·z·se + u/2 is.
			w := float64(s.ParentSize) / n
			u := 1 - w
			if provenZero > 0 {
				u = float64(max(total-s.ParentSize-provenZero, 0)) / n
			}
			if want := w*wantFrac.Value + u/2; frac.Value != want {
				t.Fatalf("trial %d: value %v, want w·p̂ + u/2 = %v", trial, frac.Value, want)
			}
		}
		for _, full := range []int64{0, s.ParentSize - 1, s.ParentSize} {
			if got := bounded(t, s, pred, plain.z, full, 0, true); got != wantFrac {
				t.Fatalf("trial %d: full coverage (total %d) %+v, want Fraction's %+v", trial, full, got, wantFrac)
			}
		}
	}
}

// TestPrunedBitIdentity is the estimator-level half of the pruning
// answer-preservation property: replacing an out-of-range stratum with a
// ZeroStratum of the same population yields bit-identical estimates.
func TestPrunedBitIdentity(t *testing.T) {
	inRange := stratum(t, core.ReservoirKind, 100, map[int64]int64{5: 3, 15: 2, 40: 5})
	alsoIn := stratum(t, core.BernoulliKind, 200, map[int64]int64{8: 4, 30: 6})
	outside := stratum(t, core.ReservoirKind, 150, map[int64]int64{500: 4, 600: 6})
	pred := func(v int64) bool { return v >= 0 && v <= 50 }

	full, err := core.NewStratified(inRange.Clone(), alsoIn.Clone(), outside.Clone())
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.NewStratified(inRange.Clone(), alsoIn.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []float64{0.90, 0.95, 0.99} {
		ef, err := NewStratifiedWithConfidence(full, conf)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewStratifiedWithConfidence(pruned, conf)
		if err != nil {
			t.Fatal(err)
		}
		zeros := []ZeroStratum{{Pop: 150, Exhaustive: false}}

		cf, err1 := ef.CountPruned(pred, nil)
		cp, err2 := ep.CountPruned(pred, zeros)
		if err1 != nil || err2 != nil {
			t.Fatalf("count errs: %v %v", err1, err2)
		}
		if cf != cp {
			t.Fatalf("conf %v: count not bit-identical:\nfull   %+v\npruned %+v", conf, cf, cp)
		}

		ff, err1 := ef.FractionPruned(pred, nil)
		fp, err2 := ep.FractionPruned(pred, zeros)
		if err1 != nil || err2 != nil {
			t.Fatalf("fraction errs: %v %v", err1, err2)
		}
		if ff != fp {
			t.Fatalf("conf %v: fraction not bit-identical:\nfull   %+v\npruned %+v", conf, ff, fp)
		}
	}
}

// TestPrunedExactFlag: a pruned exhaustive stratum keeps exactness; a
// pruned sampled stratum clears it — matching what loading would do.
func TestPrunedExactFlag(t *testing.T) {
	ex := stratum(t, core.Exhaustive, 10, map[int64]int64{1: 10})
	st, err := core.NewStratified(ex)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewStratified(st)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(v int64) bool { return v < 5 }
	got, err := e.CountPruned(pred, []ZeroStratum{{Pop: 20, Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact {
		t.Fatalf("exhaustive zeros should stay exact: %+v", got)
	}
	got, err = e.CountPruned(pred, []ZeroStratum{{Pop: 20, Exhaustive: false}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exact {
		t.Fatalf("sampled zeros must clear exactness: %+v", got)
	}
	// Fraction denominator includes the zero population: 10 of 30 match.
	frac, err := e.FractionPruned(pred, []ZeroStratum{{Pop: 20, Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac.Value-10.0/30.0) > 1e-12 {
		t.Fatalf("fraction over zeros-inclusive total: %+v", frac)
	}

	// A merged sample obeys the same rule: exhaustive and fully accounted
	// for, it is exact only while every proven partition's proof saw every
	// row of it.
	for _, proof := range []bool{true, false} {
		d := Design[int64]{Sample: ex, Proven: []ZeroStratum{{Pop: 20, Exhaustive: proof}}}
		got, err := Interval(d, pred, true, z95)
		if err != nil {
			t.Fatal(err)
		}
		if got.Exact != proof || got.Value != 10.0/30.0 {
			t.Fatalf("merged sample with exhaustive proof %v: %+v", proof, got)
		}
	}
}

// TestBoundedProvenZeroTightens: proving part of the uncovered population
// zero shrinks Hi and the half-width, and never drops truth coverage.
func TestBoundedProvenZeroTightens(t *testing.T) {
	s := stratum(t, core.ReservoirKind, 100, map[int64]int64{1: 5, 9: 5})
	pred := func(v int64) bool { return v < 5 }
	base := bounded(t, s, pred, z95, 400, 0, true)
	tight := bounded(t, s, pred, z95, 400, 300, true)
	if tight.Hi >= base.Hi {
		t.Fatalf("proven zero did not tighten Hi: base %+v tight %+v", base, tight)
	}
	if HalfWidth(tight) >= HalfWidth(base) {
		t.Fatalf("half-width did not shrink: base %v tight %v", HalfWidth(base), HalfWidth(tight))
	}
	// Fully accounted population: unknown = 0.
	if tight.Lo > tight.Hi {
		t.Fatalf("inverted interval: %+v", tight)
	}
	// Count scaling.
	if cnt := bounded(t, s, pred, z95, 400, 300, false); math.Abs(cnt.Value-tight.Value*400) > 1e-9 {
		t.Fatalf("count scale mismatch: %+v vs %v", cnt, tight.Value*400)
	}
}

// TestProxyProvenZero: the proxy tightens with proven-zero population.
func TestProxyProvenZero(t *testing.T) {
	base := ProxyWidth(50, 100, 0, 400, z95)
	tight := ProxyWidth(50, 100, 200, 400, z95)
	if tight >= base {
		t.Fatalf("proxy did not tighten: %v vs %v", tight, base)
	}
	// All uncovered population proven zero → only sampling error remains.
	all := ProxyWidth(50, 100, 300, 400, z95)
	if all >= tight {
		t.Fatalf("full proven zero should be tightest: %v vs %v", all, tight)
	}
	// Nothing covered but everything proven zero → exact.
	if got := ProxyWidth(0, 0, 400, 400, z95); got != 0 {
		t.Fatalf("all-proven-zero proxy = %v, want 0", got)
	}
}
