package estimate

import (
	"context"
	"errors"
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
)

// ulps is the distance between a and b in units in the last place (0 for
// equal values, ±0 included; huge across a sign change).
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if (ia < 0) != (ib < 0) {
		return math.MaxUint64
	}
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// hrSample is an HR sample of rows values drawn uniformly from [lo, lo+span)
// at footprint nf (exhaustive when rows fit), with the values it was drawn
// from.
func hrSample(t *testing.T, src *randx.RNG, rows, lo, span, nf int64) (*core.Sample[int64], []int64) {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(nf), src.Split())
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = lo + int64(src.Uint64()%uint64(span))
		hr.Feed(vals[i])
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s, vals
}

// zeroStrata splits pop into 1–3 proven strata with random exhaustiveness.
func zeroStrata(src *randx.RNG, pop int64, exhaustive bool) []ZeroStratum {
	var zs []ZeroStratum
	for pop > 0 {
		z := ZeroStratum{Pop: 1 + int64(src.Uint64()%uint64(pop)), Exhaustive: exhaustive || src.Uint64()%2 == 0}
		if len(zs) == 2 {
			z.Pop = pop
		}
		zs = append(zs, z)
		pop -= z.Pop
	}
	return zs
}

func allExhaustive(zs []ZeroStratum) bool {
	for _, z := range zs {
		if !z.Exhaustive {
			return false
		}
	}
	return true
}

// TestIntervalMatchesReference is the differential test: over 2500 seeded
// designs — a merged sample plus ignored population, a merged sample plus
// proven and ignored population, strata plus zeros, all-proven, and
// exhaustive strata — Interval and ProxyWidth agree with the reference
// arithmetic they replaced to 4 ulps on value, stderr, lo and hi, and exactly
// on exactness, but for one fix: a merged read is exact only when every
// proven stratum's proof observed every row, where the reference ignored the
// proofs' exhaustiveness. Sum and avg, over the merged and the stratified
// designs, agree with the estimators' former arithmetic the same way: they
// answer for the sampled population alone, exact when its samples are.
func TestIntervalMatchesReference(t *testing.T) {
	src := randx.New(27)
	agree := func(i int, what string, got, want Estimate, wantExact bool) {
		t.Helper()
		for _, f := range [][2]float64{{got.Value, want.Value}, {got.StdErr, want.StdErr}, {got.Lo, want.Lo}, {got.Hi, want.Hi}} {
			if ulps(f[0], f[1]) > 4 {
				t.Fatalf("design %d %s: %+v, reference %+v", i, what, got, want)
			}
		}
		if got.Exact != wantExact {
			t.Fatalf("design %d %s: exact %v, want %v (%+v)", i, what, got.Exact, wantExact, got)
		}
	}
	proxy := func(i int, got, want float64) {
		t.Helper()
		if ulps(got, want) > 4 {
			t.Fatalf("design %d: proxy %v, reference %v", i, got, want)
		}
	}
	compose := func(d Design[int64], pred func(int64) bool, z float64) (cnt, frac Estimate) {
		t.Helper()
		cnt, err1 := Interval(d, "count", Indicator(pred), z)
		frac, err2 := Interval(d, "fraction", Indicator(pred), z)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		return cnt, frac
	}
	value := func(v int64) float64 { return float64(v) }
	linear := func(i int, d Design[int64], z float64, wantSum, wantAvg Estimate, err error) {
		t.Helper()
		sum, err1 := Interval(d, "sum", value, z)
		avg, err2 := Interval(d, "avg", value, z)
		if err != nil || err1 != nil || err2 != nil {
			t.Fatal(err, err1, err2)
		}
		agree(i, "sum", sum, wantSum, wantSum.Exact)
		agree(i, "avg", avg, wantAvg, wantAvg.Exact)
	}
	for i := 0; i < 2500; i++ {
		conf := []float64{0.90, 0.95, 0.99}[src.Uint64()%3]
		z, _ := ZCrit(conf)
		lo := int64(src.Uint64() % 1200)
		hi := lo + int64(src.Uint64()%1200)
		pred := func(v int64) bool { return v >= lo && v <= hi }
		nf := int64(16 + src.Uint64()%240)
		switch i % 5 {
		case 0, 1: // a merged sample plus ignored — and, every other time, proven — population
			s, _ := hrSample(t, src, int64(1+src.Uint64()%3000), 0, 1500, nf)
			ignored := int64(src.Uint64() % 6000)
			if src.Uint64()%4 == 0 {
				ignored = 0
			}
			var zeros []ZeroStratum
			if i%5 == 1 {
				zeros = zeroStrata(src, int64(1+src.Uint64()%6000), false)
			}
			d := Design[int64]{Sample: s, Proven: zeros, Ignored: ignored}
			total, proven := d.Pop(), d.Pop()-s.ParentSize-ignored
			cnt, frac := compose(d, pred, z)
			wantCnt, err1 := refBoundedCountProvenZero(s, pred, conf, total, proven)
			wantFrac, err2 := refBoundedFractionProvenZero(s, pred, conf, total, proven)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if proven == 0 {
				wantCnt, _ = refBoundedCount(s, pred, conf, total)
				wantFrac, _ = refBoundedFraction(s, pred, conf, total)
				proxy(i, ProxyWidth(s.Size(), s.ParentSize, 0, total, z), refProxyHalfWidthZ(s.Size(), s.ParentSize, total, z))
			}
			agree(i, "merged count", cnt, wantCnt, wantCnt.Exact && allExhaustive(zeros))
			agree(i, "merged fraction", frac, wantFrac, wantFrac.Exact && allExhaustive(zeros))
			proxy(i, ProxyWidth(s.Size(), s.ParentSize, proven, total, z), refProxyHalfWidthProvenZeroZ(s.Size(), s.ParentSize, total, proven, z))
			e := &Estimator[int64]{s: s, z: z}
			wantSum, err1 := refSum(e, value)
			wantAvg, err2 := refAvg(e, value)
			linear(i, d, z, wantSum, wantAvg, errors.Join(err1, err2))
		case 2, 4: // strata plus zeros; exhaustive strata every other time
			if i%5 == 4 {
				nf = 4096 // every stratum fits: exhaustive
			}
			var strata []*core.Sample[int64]
			for h := int64(0); h < 2+int64(src.Uint64()%3); h++ {
				s, _ := hrSample(t, src, int64(1+src.Uint64()%2000), h*400, 400+int64(src.Uint64()%800), nf)
				strata = append(strata, s)
			}
			st, err := core.NewStratified(strata...)
			if err != nil {
				t.Fatal(err)
			}
			var zeros []ZeroStratum
			if src.Uint64()%4 != 0 {
				zeros = zeroStrata(src, int64(1+src.Uint64()%4000), i%5 == 4 && src.Uint64()%2 == 0)
			}
			e, err := NewStratifiedWithConfidence(st, conf)
			if err != nil {
				t.Fatal(err)
			}
			cnt, frac := compose(Design[int64]{Strata: st, Proven: zeros}, pred, z)
			wantCnt, err1 := refCountPruned(e, pred, zeros)
			wantFrac, err2 := refFractionPruned(e, pred, zeros)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			agree(i, "strata count", cnt, wantCnt, wantCnt.Exact)
			agree(i, "strata fraction", frac, wantFrac, wantFrac.Exact)
			wantSum, err1 := refStratSum(e, value)
			wantAvg, err2 := refStratAvg(e, value)
			linear(i, Design[int64]{Strata: st, Proven: zeros}, z, wantSum, wantAvg, errors.Join(err1, err2))
		case 3: // all proven
			zeros := zeroStrata(src, int64(1+src.Uint64()%4000), false)
			cnt, frac := compose(Design[int64]{Proven: zeros}, pred, z)
			want := refAllProven(zeros)
			agree(i, "all-proven count", cnt, want, want.Exact)
			agree(i, "all-proven fraction", frac, want, want.Exact)
			proven := Design[int64]{Proven: zeros}.Pop()
			total := proven + int64(src.Uint64()%4000)
			proxy(i, ProxyWidth(0, 0, proven, total, z), refProxyHalfWidthProvenZeroZ(0, 0, total, proven, z))
		}
	}
}

// inside reports x ∈ [lo, hi] up to rounding: an exact answer is the truth
// computed in floating point.
func inside(x, lo, hi float64) bool {
	eps := 1e-9 * max(1, math.Abs(x))
	return lo-eps <= x && x <= hi+eps
}

// answerer is one implementation of the count/fraction arithmetic under the
// conformance test: the composition, or the reference it replaced.
type answerer struct {
	name string
	// interval answers the count and the fraction of d's population in
	// [lo, hi] at conf.
	interval func(d Design[int64], pred func(int64) bool, conf float64) (cnt, frac Estimate, err error)
	// proxy is the predicate-free half-width of a merged read.
	proxy func(n, covered, proven, total int64, z float64) float64
}

var answerers = []answerer{
	{"composition",
		func(d Design[int64], pred func(int64) bool, conf float64) (cnt, frac Estimate, err error) {
			z, err := ZCrit(conf)
			if err != nil {
				return cnt, frac, err
			}
			if cnt, err = Interval(d, "count", Indicator(pred), z); err != nil {
				return cnt, frac, err
			}
			frac, err = Interval(d, "fraction", Indicator(pred), z)
			return cnt, frac, err
		},
		ProxyWidth},
	{"reference",
		func(d Design[int64], pred func(int64) bool, conf float64) (cnt, frac Estimate, err error) {
			var proven int64
			for _, z := range d.Proven {
				proven += z.Pop
			}
			switch {
			case d.Sample != nil:
				total := d.Sample.ParentSize + proven + d.Ignored
				if cnt, err = refBoundedCountProvenZero(d.Sample, pred, conf, total, proven); err != nil {
					return cnt, frac, err
				}
				frac, err = refBoundedFractionProvenZero(d.Sample, pred, conf, total, proven)
				return cnt, frac, err
			case d.Strata != nil:
				e, err := NewStratifiedWithConfidence(d.Strata, conf)
				if err != nil {
					return cnt, frac, err
				}
				if cnt, err = refCountPruned(e, pred, d.Proven); err != nil {
					return cnt, frac, err
				}
				frac, err = refFractionPruned(e, pred, d.Proven)
				return cnt, frac, err
			}
			return refAllProven(d.Proven), refAllProven(d.Proven), nil
		},
		func(n, covered, proven, total int64, z float64) float64 {
			if proven == 0 {
				return refProxyHalfWidthZ(n, covered, total, z)
			}
			return refProxyHalfWidthProvenZeroZ(n, covered, total, proven, z)
		}},
}

// conformRead is one seeded read over partitions of known contents: the
// design the read stands on and the exact answer over its whole population.
type conformRead struct {
	d     Design[int64]
	pred  func(int64) bool
	truth float64 // matching rows over the design's population
	// extra predicates over the same values, for the proxy bound.
	cuts []int64
}

// newConformRead draws 3–6 partitions, partition j holding values in
// [1000j, 1000j+1000); a range predicate; and a read that proves the
// partitions lying wholly outside the range (they hold no match), ignores some
// others if it merges, and samples the rest — merged into one sample or kept
// as strata. Every fifth read's samples are exhaustive.
func newConformRead(t *testing.T, seed uint64) conformRead {
	t.Helper()
	src := randx.New(seed)
	parts := 3 + int(src.Uint64()%4)
	lo := int64(src.Uint64() % uint64(1000*parts))
	hi := lo + int64(src.Uint64()%1500)
	r := conformRead{pred: func(v int64) bool { return v >= lo && v <= hi }}
	merged := seed%2 == 0
	var sampled []*core.Sample[int64]
	nf := int64(32 + src.Uint64()%128)
	if seed%5 == 0 {
		nf = 4096 // every partition fits: exhaustive
	}
	for j := 0; j < parts; j++ {
		rows := int64(100 + src.Uint64()%1500)
		s, vals := hrSample(t, src, rows, int64(1000*j), 1000, nf)
		for _, v := range vals {
			if r.pred(v) {
				r.truth++
			}
		}
		outside := int64(1000*j+999) < lo || int64(1000*j) > hi
		switch {
		case outside && src.Uint64()%3 != 0:
			r.d.Proven = append(r.d.Proven, ZeroStratum{Pop: rows, Exhaustive: s.Kind == core.Exhaustive})
		case merged && len(sampled) > 0 && src.Uint64()%3 == 0:
			r.d.Ignored += rows
		default:
			sampled = append(sampled, s)
		}
	}
	if len(sampled) == 0 {
		return r // all proven
	}
	if !merged {
		st, err := core.NewStratified(sampled...)
		if err != nil {
			t.Fatal(err)
		}
		r.d.Strata = st
		return r
	}
	m, err := core.MergeK(context.Background(), sampled, randx.New(seed^0x5eed), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.d.Sample = m
	for c := 0; c < 4; c++ {
		r.cuts = append(r.cuts, int64(src.Uint64()%uint64(1000*parts)))
	}
	return r
}

// TestIntervalConformance holds the count/fraction arithmetic — the
// composition and the reference it replaced alike — to the statistical
// contract against each seeded read's exact answer: lo ≤ value ≤ hi; an
// exact answer is the truth; nominal-95 % intervals cover the truth in at
// least 93 % of 1200 reads; with the sample fixed, the interval never widens
// as ignored population is read or proven instead; and the proxy is at least
// every predicate's half-width.
func TestIntervalConformance(t *testing.T) {
	for _, a := range answerers {
		t.Run(a.name, func(t *testing.T) {
			const reads = 1200
			covered := 0
			for seed := uint64(1); seed <= reads; seed++ {
				r := newConformRead(t, seed)
				cnt, frac, err := a.interval(r.d, r.pred, 0.95)
				if err != nil {
					t.Fatalf("read %d: %v", seed, err)
				}
				pop := float64(r.d.Pop())
				for _, e := range []Estimate{cnt, frac} {
					if !(e.Lo <= e.Value && e.Value <= e.Hi) {
						t.Fatalf("read %d: %+v is not lo ≤ value ≤ hi", seed, e)
					}
				}
				if cnt.Exact && !inside(r.truth, cnt.Value, cnt.Value) {
					t.Fatalf("read %d: exact count %v, truth %v", seed, cnt.Value, r.truth)
				}
				if inside(r.truth, cnt.Lo, cnt.Hi) && inside(r.truth/pop, frac.Lo, frac.Hi) {
					covered++
				}
				if r.d.Sample == nil {
					continue
				}
				// Fewer rows ignored — read, or proven to hold no match —
				// never widens the answer.
				if r.d.Ignored > 0 {
					more := r.d
					more.Ignored += 1 + r.d.Ignored
					_, wider, _ := a.interval(more, r.pred, 0.95)
					proved := r.d
					proved.Ignored /= 2
					proved.Proven = append(proved.Proven[:len(proved.Proven):len(proved.Proven)], ZeroStratum{Pop: r.d.Ignored - proved.Ignored})
					_, tighter, _ := a.interval(proved, r.pred, 0.95)
					if HalfWidth(wider) < HalfWidth(frac) || HalfWidth(tighter) > HalfWidth(frac) {
						t.Fatalf("read %d: half-width %v with %d ignored, %v with more ignored, %v with half of them proven",
							seed, HalfWidth(frac), r.d.Ignored, HalfWidth(wider), HalfWidth(tighter))
					}
				}
				var proven int64
				for _, z := range r.d.Proven {
					proven += z.Pop
				}
				bound := a.proxy(r.d.Sample.Size(), r.d.Sample.ParentSize, proven, r.d.Pop(), z95)
				for _, cut := range append(r.cuts, -1) {
					pred := r.pred
					if cut >= 0 {
						pred = func(v int64) bool { return v < cut }
					}
					_, f, _ := a.interval(r.d, pred, 0.95)
					if hw := HalfWidth(f); hw > bound+1e-12 {
						t.Fatalf("read %d: half-width %v over the proxy %v", seed, hw, bound)
					}
				}
			}
			if rate := float64(covered) / reads; rate < 0.93 {
				t.Fatalf("nominal-95%% intervals covered the truth in %.3f of %d reads, want ≥ 0.93", rate, reads)
			}
		})
	}
}
