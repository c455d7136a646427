package estimate

import (
	"cmp"
	"math"

	"samplewh/internal/core"
)

// A count or fraction answer composes the strata of one read (DESIGN.md §14):
// sampled strata with their classical variance terms, strata a sidecar proved
// to hold no match (exactly zero), and ignored population, which may hold
// anything and so adds [0, pop] to the interval and pop/2 to the value.

// ZeroStratum is a partition proven by its sketch sidecar to hold no match of
// a range predicate; Exhaustive says the sidecar observed every row, not only
// those of a sample.
type ZeroStratum struct {
	Pop        int64
	Exhaustive bool
}

// Design is the strata one read's answer stands on: one merged sample of the
// covered union or the per-partition strata of a stratified read (at most one
// of the two), the proven strata, and the ignored population.
type Design[V cmp.Ordered] struct {
	Sample  *core.Sample[V]
	Strata  *core.Stratified[V]
	Proven  []ZeroStratum
	Ignored int64
}

// Planned is the design of a bounded read that merged s out of totalPop
// requested rows, provenZero of them proven to hold no match.
func Planned[V cmp.Ordered](s *core.Sample[V], totalPop, provenZero int64) Design[V] {
	d := Design[V]{Sample: s, Ignored: max(totalPop-s.ParentSize-provenZero, 0)}
	if provenZero > 0 {
		d.Proven = []ZeroStratum{{Pop: provenZero}}
	}
	return d
}

// pops returns the sampled and proven populations.
func (d Design[V]) pops() (sampled, proven int64) {
	switch {
	case d.Sample != nil:
		sampled = d.Sample.ParentSize
	case d.Strata != nil:
		sampled = d.Strata.ParentSize()
	}
	for _, z := range d.Proven {
		proven += z.Pop
	}
	return sampled, proven
}

// Pop is the population the design answers for.
func (d Design[V]) Pop() int64 {
	sampled, proven := d.pops()
	return sampled + proven + d.Ignored
}

// Interval is the one composition of a design into the count — with frac, the
// fraction — of its population satisfying pred, at critical value z. A merged
// sample answers on the fraction scale: its SRS proportion with
// finite-population correction, clamped to [0, 1] and weighted by its share w
// of the population, plus the ignored share u at [0, u]; its count is that
// times the population. Strata answer on the count scale: the stratified
// expansion Σ N_h·ȳ_h with variance Σ N_h²(1−n_h/N_h)s_h²/n_h, plus the
// ignored population at [0, pop]; their fraction is that over the population.
// The answer is exact only when no sampled stratum is inexact, every proven
// stratum is exhaustive and nothing is ignored.
func Interval[V cmp.Ordered](d Design[V], pred func(V) bool, frac bool, z float64) (Estimate, error) {
	sampled, proven := d.pops()
	total := float64(sampled + proven + d.Ignored)
	var e Estimate
	if d.Sample != nil {
		p, err := (&Estimator[V]{s: d.Sample, z: z}).Fraction(pred)
		if err != nil {
			return Estimate{}, err
		}
		w, u := shares(sampled, proven, d.Ignored)
		e = Estimate{Value: w*p.Value + u/2, StdErr: p.StdErr * w, Lo: w * p.Lo, Hi: min(w*p.Hi+u, 1), Exact: p.Exact}
		if !frac {
			e = Estimate{Value: e.Value * total, StdErr: e.StdErr * total, Lo: e.Lo * total, Hi: e.Hi * total, Exact: e.Exact}
		}
	} else {
		e.Exact = true // no sampled stratum: every match is known
		if d.Strata != nil {
			var err error
			e, err = (&StratifiedEstimator[V]{st: d.Strata, z: z}).Sum(func(v V) float64 {
				if pred(v) {
					return 1
				}
				return 0
			})
			if err != nil {
				return Estimate{}, err
			}
		}
		ignored := float64(d.Ignored)
		e.Value += ignored / 2
		e.Lo, e.Hi = max(e.Lo, 0), min(e.Hi+ignored, total)
		if frac && total > 0 {
			e = Estimate{Value: e.Value / total, StdErr: e.StdErr / total, Lo: e.Lo / total, Hi: e.Hi / total, Exact: e.Exact}
		}
	}
	e.Exact = e.Exact && d.Ignored == 0
	for _, z := range d.Proven {
		e.Exact = e.Exact && z.Exhaustive
	}
	return e, nil
}

// ProxyWidth is the fraction-scale half-width Interval's composition gives a
// merged sample of n rows over covered ones, out of totalPop requested rows of
// which provenZero are proven to hold no match, at the worst-case share p = ½
// and before clamping. As p(1−p) ≤ ¼ it bounds every predicate's half-width
// over that design, so reads without a predicate in hand price with it.
func ProxyWidth(n, covered, provenZero, totalPop int64, z float64) float64 {
	ignored := max(totalPop-covered-provenZero, 0)
	if covered+provenZero+ignored <= 0 {
		return math.Inf(1) // nothing to answer for
	}
	w, u := shares(covered, provenZero, ignored)
	var se float64
	if n = min(n, covered); n > 0 {
		se = srsSE(0.5, n, covered)
	}
	return w*z*se + u/2
}

// shares splits a population into its sampled share w and ignored share u.
// With nothing proven, u is the complement 1 − w, which is how bounded
// answers without sidecar proofs have always been rounded.
func shares(sampled, proven, ignored int64) (w, u float64) {
	total := float64(sampled + proven + ignored)
	w = float64(sampled) / total
	if proven == 0 {
		return w, 1 - w
	}
	return w, float64(ignored) / total
}

// srsSE is the standard error of a proportion p estimated from a simple
// random sample of n out of N, with the finite-population correction.
func srsSE(p float64, n, N int64) float64 {
	return math.Sqrt(p*(1-p)/float64(n)) * fpc(n, N)
}

// fpc is the finite-population correction √((N−n)/(N−1)).
func fpc(n, N int64) float64 {
	if N <= 1 || n >= N {
		return 0
	}
	return math.Sqrt(float64(N-n) / float64(N-1))
}

// HalfWidth is the half-width of an estimate's interval.
func HalfWidth(e Estimate) float64 { return (e.Hi - e.Lo) / 2 }

// BoundedFractionProvenZero is Interval's fraction over Planned(s, totalPop,
// provenZero). It remains only because bench/trace.go compiles against it;
// ROADMAP item 1(a), which rewrites that replay, deletes it.
func BoundedFractionProvenZero[V cmp.Ordered](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	z, err := ZCrit(confidence)
	if err != nil {
		return Estimate{}, err
	}
	return Interval(Planned(s, totalPop, provenZero), pred, true, z)
}
