package estimate

import (
	"cmp"
	"fmt"
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

// Interval is the one composition of a design into a linear aggregate of f —
// kind is the query grammar's count, fraction, sum or avg; count and fraction
// pass Indicator(pred) — at critical value z. One moments pass per sample
// gives Σf and Σf². A merged sample answers a count or fraction on the
// fraction scale: its SRS proportion with finite-population correction,
// clamped to [0, 1] and weighted by its share w of the population, plus the
// ignored share u at [0, u]; its count is that times the population. Strata
// answer on the count scale: the stratified expansion Σ N_h·ȳ_h with variance
// Σ N_h²(1−n_h/N_h)s_h²/n_h, plus the ignored population at [0, pop]; their
// fraction is that over the population. A count or fraction is exact only
// when no sampled stratum is inexact, every proven stratum is exhaustive and
// nothing is ignored. A sum or avg answers for the sampled population alone,
// exact when its samples are: a merged sample's is N·ȳ with s²/n and the
// finite-population correction, the strata's their expansion, and avg is the
// sum over N.
func Interval[V cmp.Ordered](d Design[V], kind string, f func(V) float64, z float64) (Estimate, error) {
	linear := kind == "sum" || kind == "avg"
	switch {
	case !linear && kind != "count" && kind != "fraction":
		return Estimate{}, fmt.Errorf("estimate: %q is not a linear aggregate", kind)
	case linear && d.Sample == nil && d.Strata == nil:
		return Estimate{}, fmt.Errorf("estimate: nil sample")
	}
	sampled, proven := d.pops()
	total := float64(sampled + proven + d.Ignored)
	var e Estimate
	if s := d.Sample; s != nil {
		n := s.Size()
		if n == 0 {
			return Estimate{}, fmt.Errorf("estimate: empty sample")
		}
		sum, sumsq := moments(s, f)
		exact := s.Kind == core.Exhaustive
		if linear {
			mean := sum / float64(n)
			var se float64
			if n > 1 {
				variance := max((sumsq-sum*mean)/float64(n-1), 0)
				se = math.Sqrt(variance/float64(n)) * fpc(n, s.ParentSize)
			}
			if kind == "sum" {
				N := float64(s.ParentSize)
				return finish(mean*N, se*N, z, exact), nil
			}
			return finish(mean, se, z, exact), nil
		}
		p, _ := proportion(sum/float64(n), n, s.ParentSize, z, exact)
		w, u := shares(sampled, proven, d.Ignored)
		e = Estimate{Value: w*p.Value + u/2, StdErr: p.StdErr * w, Lo: w * p.Lo, Hi: min(w*p.Hi+u, 1), Exact: p.Exact}
		if kind == "count" {
			e = Estimate{Value: e.Value * total, StdErr: e.StdErr * total, Lo: e.Lo * total, Hi: e.Hi * total, Exact: e.Exact}
		}
	} else {
		e.Exact = true // no sampled stratum: every match is known
		if d.Strata != nil {
			var sum, variance float64
			for i, s := range d.Strata.Strata() {
				n := float64(s.Size())
				if n == 0 {
					return Estimate{}, fmt.Errorf("estimate: stratum %d has an empty sample", i)
				}
				N := float64(s.ParentSize)
				ssum, ssumsq := moments(s, f)
				mean := ssum / n
				sum += N * mean
				if s.Kind != core.Exhaustive {
					e.Exact = false
					if n > 1 {
						sVar := max((ssumsq-ssum*mean)/(n-1), 0)
						variance += N * N * max(1-n/N, 0) * sVar / n
					}
				}
			}
			e = finish(sum, math.Sqrt(variance), z, e.Exact)
			if kind == "sum" {
				return e, nil
			}
			if kind == "avg" {
				N := float64(sampled)
				return Estimate{Value: e.Value / N, StdErr: e.StdErr / N, Lo: e.Lo / N, Hi: e.Hi / N, Exact: e.Exact}, nil
			}
		}
		ignored := float64(d.Ignored)
		e.Value += ignored / 2
		e.Lo, e.Hi = max(e.Lo, 0), min(e.Hi+ignored, total)
		if kind == "fraction" && total > 0 {
			e = Estimate{Value: e.Value / total, StdErr: e.StdErr / total, Lo: e.Lo / total, Hi: e.Hi / total, Exact: e.Exact}
		}
	}
	e.Exact = e.Exact && d.Ignored == 0
	for _, z := range d.Proven {
		e.Exact = e.Exact && z.Exhaustive
	}
	return e, nil
}

// Indicator is pred as the 0/1 function whose sum is a count and whose mean
// is a fraction.
func Indicator[V cmp.Ordered](pred func(V) bool) func(V) float64 {
	return func(v V) float64 {
		if pred(v) {
			return 1
		}
		return 0
	}
}

// moments is Σf and Σf² over a sample's rows.
func moments[V cmp.Ordered](s *core.Sample[V], f func(V) float64) (sum, sumsq float64) {
	s.Hist.Each(func(v V, c int64) {
		x := f(v)
		sum += x * float64(c)
		sumsq += x * x * float64(c)
	})
	return sum, sumsq
}

// finish is the Estimate of value with standard error se at critical value z;
// an exact one has no error.
func finish(value, se, z float64, exact bool) Estimate {
	if exact {
		se = 0
	}
	return Estimate{Value: value, StdErr: se, Lo: value - z*se, Hi: value + z*se, Exact: exact}
}

// proportion is the interval of a share p of a merged sample of n out of N
// rows, clamped to [0, 1], and of the count it carries to those N rows,
// clamped to [0, N].
func proportion(p float64, n, N int64, z float64, exact bool) (share, count Estimate) {
	share = finish(p, srsSE(p, n, N), z, exact)
	share.Lo, share.Hi = max(share.Lo, 0), min(share.Hi, 1)
	fN := float64(N)
	count = finish(p*fN, share.StdErr*fN, z, exact)
	count.Lo, count.Hi = max(count.Lo, 0), min(count.Hi, fN)
	return share, count
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
// ROADMAP item 2(b), which rewrites that replay, deletes it.
func BoundedFractionProvenZero[V cmp.Ordered](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	z, err := ZCrit(confidence)
	if err != nil {
		return Estimate{}, err
	}
	return Interval(Planned(s, totalPop, provenZero), "fraction", Indicator(pred), z)
}
