package estimate

import (
	"math"

	"samplewh/internal/core"
)

// Bounded-query arithmetic (DESIGN.md §14). A planner-chosen subset of
// partitions yields a uniform sample of the *covered* union (Theorem 1), so
// the covered-union estimate carries an ordinary SRS interval. Extending the
// answer to the full requested population adds a second, non-sampling error
// term: the uncovered population can contribute anywhere between "no match"
// and "all match". For selectivity-style aggregates (fraction, count) both
// terms are bounded, which is what makes maxerr a guarantee rather than a
// heuristic:
//
//	p_total ∈ [w·p_lo , w·p_hi + (1−w)]   where w = covered/total
//
// The fraction-scale half-width w·z·se + (1−w)/2 shrinks monotonically as
// coverage grows and reduces to the ordinary interval at full coverage —
// loading more partitions buys a tighter answer, and the executor stops as
// soon as the width meets the bound. The point estimate sits where that
// half-width is centred, w·p̂ + (1−w)/2: the uncovered remainder counted at
// half, the one value that is inside the interval whatever it hides.

// HalfWidth is the fraction-scale half-width of an estimate's interval.
func HalfWidth(e Estimate) float64 { return (e.Hi - e.Lo) / 2 }

// BoundedFraction estimates the predicate selectivity over a requested
// population of totalPop elements from a sample covering only s.ParentSize of
// them. The interval combines the covered-union sampling interval with the
// worst-case contribution of the uncovered remainder; at full coverage
// (totalPop ≤ s.ParentSize) it is exactly Fraction.
func BoundedFraction[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop int64) (Estimate, error) {
	e, err := NewWithConfidence(s, confidence)
	if err != nil {
		return Estimate{}, err
	}
	est, err := e.Fraction(pred)
	if err != nil {
		return Estimate{}, err
	}
	covered := s.ParentSize
	if totalPop <= covered {
		return est, nil
	}
	w := float64(covered) / float64(totalPop)
	est = extend(est, w, 1-w)
	est.Exact = false // the uncovered remainder is never exact
	return est, nil
}

// extend carries a fraction estimated over the covered share w of a requested
// population to the whole of it, of which the share u is unknown (and the
// rest, if any, proven to hold no match): value, error and interval all move
// to the requested scale together, so lo ≤ value ≤ hi ≤ 1 keeps holding.
func extend(est Estimate, w, u float64) Estimate {
	est.Value = w*est.Value + u/2
	est.StdErr *= w
	est.Lo = w * est.Lo
	est.Hi = min(w*est.Hi+u, 1)
	return est
}

// BoundedCount is BoundedFraction scaled to a count over totalPop elements.
// Its fraction-scale half-width (for maxerr checks) is HalfWidth(est)/totalPop.
func BoundedCount[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop int64) (Estimate, error) {
	frac, err := BoundedFraction[V](s, pred, confidence, totalPop)
	if err != nil {
		return Estimate{}, err
	}
	n := float64(totalPop)
	return Estimate{
		Value:  frac.Value * n,
		StdErr: frac.StdErr * n,
		Lo:     frac.Lo * n,
		Hi:     frac.Hi * n,
		Exact:  frac.Exact,
	}, nil
}

// ProxyHalfWidth is the query-agnostic fraction-scale half-width of a merged
// sample of size n covering coveredPop out of totalPop elements: the
// worst-case (p=1/2) proportion interval over the covered union plus the
// uncovered-coverage term. Because p(1−p) ≤ 1/4, it upper-bounds the width of
// any BoundedFraction answer from the same sample, so the planner and the
// shard-local sample path can use it without knowing the predicate.
func ProxyHalfWidth(n, coveredPop, totalPop int64, confidence float64) (float64, error) {
	z, err := zCrit(confidence)
	if err != nil {
		return 0, err
	}
	return ProxyHalfWidthZ(n, coveredPop, totalPop, z), nil
}

// ProxyHalfWidthZ is ProxyHalfWidth with the critical value precomputed
// (see ZCrit); the planner calls it per simulated step.
func ProxyHalfWidthZ(n, coveredPop, totalPop int64, z float64) float64 {
	if coveredPop <= 0 || totalPop <= 0 {
		return math.Inf(1) // nothing covered: unbounded uncertainty
	}
	if n > coveredPop {
		n = coveredPop
	}
	var se float64
	if n > 0 && n < coveredPop {
		se = math.Sqrt(0.25 / float64(n))
		if coveredPop > 1 {
			se *= math.Sqrt(float64(coveredPop-n) / float64(coveredPop-1))
		}
	}
	w := 1.0
	if totalPop > coveredPop {
		w = float64(coveredPop) / float64(totalPop)
	}
	return w*z*se + (1-w)/2
}

// ZCrit exposes the two-sided normal critical value for a supported
// confidence level (0.90, 0.95, 0.99) to the planner.
func ZCrit(confidence float64) (float64, error) { return zCrit(confidence) }
