package estimate

import (
	"math"
	"testing"

	"samplewh/internal/randx"
)

func TestBoundedFractionFullCoverageIsFraction(t *testing.T) {
	s := reservoirSample(t, 7, 2000, 256)
	e := New(s)
	pred := func(v int64) bool { return v < 1000 }
	plain, err := e.Fraction(pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int64{0, s.ParentSize - 1, s.ParentSize} {
		got, err := BoundedFraction(s, pred, 0.95, total)
		if err != nil {
			t.Fatal(err)
		}
		if got != plain {
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
	got, err := BoundedFraction(s, pred, 0.95, total)
	if err != nil {
		t.Fatal(err)
	}
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
		est, err := BoundedFraction(s, pred, 0.95, total)
		if err != nil {
			t.Fatal(err)
		}
		hw := HalfWidth(est)
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
	frac, err := BoundedFraction(s, pred, 0.95, total)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := BoundedCount(s, pred, 0.95, total)
	if err != nil {
		t.Fatal(err)
	}
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
		proxy, err := ProxyHalfWidth(s.Size(), s.ParentSize, total, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int64{100, 500, 1000, 1900} {
			cut := cut
			est, err := BoundedFraction(s, func(v int64) bool { return v < cut }, 0.95, total)
			if err != nil {
				t.Fatal(err)
			}
			if hw := HalfWidth(est); hw > proxy+1e-12 {
				t.Fatalf("totalPop %d pred <%d: half-width %v exceeds proxy %v", total, cut, hw, proxy)
			}
		}
	}
}

func TestProxyHalfWidthProperties(t *testing.T) {
	// Nothing covered: unbounded uncertainty.
	if hw := ProxyHalfWidthZ(0, 0, 1000, 1.96); !math.IsInf(hw, 1) {
		t.Fatalf("zero coverage half-width %v, want +Inf", hw)
	}
	// Exhaustive full coverage: zero width.
	if hw := ProxyHalfWidthZ(1000, 1000, 1000, 1.96); hw != 0 {
		t.Fatalf("exhaustive half-width %v, want 0", hw)
	}
	// Monotone decreasing as coverage grows with the merged size held fixed.
	prev := math.Inf(1)
	for covered := int64(1000); covered <= 8000; covered += 1000 {
		hw := ProxyHalfWidthZ(256, covered, 8000, 1.96)
		if hw >= prev {
			t.Fatalf("coverage %d did not tighten the proxy (%v >= %v)", covered, hw, prev)
		}
		prev = hw
	}
	// A bigger merged sample never widens the interval.
	if ProxyHalfWidthZ(512, 4000, 8000, 1.96) > ProxyHalfWidthZ(128, 4000, 8000, 1.96) {
		t.Fatal("larger sample widened the proxy interval")
	}
	// Unsupported confidence levels surface as errors.
	if _, err := ProxyHalfWidth(256, 1000, 2000, 0.5); err == nil {
		t.Fatal("unsupported confidence accepted")
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
// the interval stays inside [0, 1]; and at full coverage every bounded form
// is the plain estimate, bit for bit.
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
		wantCount, _ := plain.Count(pred)

		total := s.ParentSize + int64(src.Uint64()%uint64(4*rows))
		provenZero := int64(0)
		if trial%2 == 1 {
			provenZero = int64(src.Uint64() % uint64(total-s.ParentSize+rows)) // may exceed what is uncovered
		}
		frac, err := BoundedFractionProvenZero(s, pred, conf, total, provenZero)
		if err != nil {
			t.Fatal(err)
		}
		count, err := BoundedCountProvenZero(s, pred, conf, total, provenZero)
		if err != nil {
			t.Fatal(err)
		}
		if !(0 <= frac.Lo && frac.Lo <= frac.Value && frac.Value <= frac.Hi && frac.Hi <= 1) {
			t.Fatalf("trial %d (covered %d of %d, %d proven zero): fraction %+v is not 0 ≤ lo ≤ value ≤ hi ≤ 1",
				trial, s.ParentSize, total, provenZero, frac)
		}
		n := float64(total)
		if count.Value != frac.Value*n || count.Lo != frac.Lo*n || count.Hi != frac.Hi*n || count.StdErr != frac.StdErr*n {
			t.Fatalf("trial %d: count %+v is not fraction %+v scaled by %v", trial, count, frac, n)
		}
		if total > s.ParentSize {
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
			for _, pz := range []int64{0, provenZero} {
				if got, _ := BoundedFractionProvenZero(s, pred, conf, full, pz); got != wantFrac {
					t.Fatalf("trial %d: full coverage (total %d, proven zero %d) %+v, want Fraction's %+v", trial, full, pz, got, wantFrac)
				}
			}
			if got, _ := BoundedFraction(s, pred, conf, full); got != wantFrac {
				t.Fatalf("trial %d: BoundedFraction at full coverage %+v, want %+v", trial, got, wantFrac)
			}
		}
		if got, _ := BoundedCount(s, pred, conf, s.ParentSize); got.Value != wantCount.Value {
			t.Fatalf("trial %d: BoundedCount at full coverage %+v, want Count's %+v", trial, got, wantCount)
		}
	}
}
