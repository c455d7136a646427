package estimate

import (
	"math"

	"samplewh/internal/core"
)

// The reference: the interval arithmetic the composition in design.go
// replaced, one function per former special case, kept verbatim (renamed ref…,
// methods turned into functions of their estimator) so the differential test
// can hold Interval and ProxyWidth to it. refAllProven is the all-proven
// branch of the server's former rangeEstimate.

// refBoundedFraction estimates the predicate selectivity over a requested
// population of totalPop elements from a sample covering only s.ParentSize of
// them. The interval combines the covered-union sampling interval with the
// worst-case contribution of the uncovered remainder; at full coverage
// (totalPop ≤ s.ParentSize) it is exactly Fraction.
func refBoundedFraction[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop int64) (Estimate, error) {
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
	est = refExtend(est, w, 1-w)
	est.Exact = false // the uncovered remainder is never exact
	return est, nil
}

// refExtend carries a fraction estimated over the covered share w of a requested
// population to the whole of it, of which the share u is unknown (and the
// rest, if any, proven to hold no match): value, error and interval all move
// to the requested scale together, so lo ≤ value ≤ hi ≤ 1 keeps holding.
func refExtend(est Estimate, w, u float64) Estimate {
	est.Value = w*est.Value + u/2
	est.StdErr *= w
	est.Lo = w * est.Lo
	est.Hi = min(w*est.Hi+u, 1)
	return est
}

// refBoundedCount is BoundedFraction scaled to a count over totalPop elements.
// Its fraction-scale half-width (for maxerr checks) is HalfWidth(est)/totalPop.
func refBoundedCount[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop int64) (Estimate, error) {
	frac, err := refBoundedFraction[V](s, pred, confidence, totalPop)
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

// refProxyHalfWidthZ is ProxyHalfWidth with the critical value precomputed
// (see ZCrit); the planner calls it per simulated step.
func refProxyHalfWidthZ(n, coveredPop, totalPop int64, z float64) float64 {
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

// refTotalWithZeros is N_total across loaded strata and proven-zero strata.
// Integer addition keeps the total independent of which strata were pruned.
func refTotalWithZeros[V comparable](e *StratifiedEstimator[V], zeros []ZeroStratum) int64 {
	total := e.st.ParentSize()
	for _, z := range zeros {
		total += z.Pop
	}
	return total
}

// refCountPruned estimates the number of elements satisfying pred across the
// loaded strata plus the proven-zero strata. When zeros is empty it is
// exactly Count.
func refCountPruned[V comparable](e *StratifiedEstimator[V], pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	est, err := e.Sum(func(v V) float64 {
		if pred(v) {
			return 1
		}
		return 0
	})
	if err != nil {
		return Estimate{}, err
	}
	// Proven-zero strata add exact zeros to the total and variance (no-ops
	// bit for bit); only the exactness flag can flip, just as a loaded
	// non-exhaustive stratum would flip it.
	for _, z := range zeros {
		if !z.Exhaustive {
			est.Exact = false
		}
	}
	if est.Lo < 0 {
		est.Lo = 0
	}
	if max := float64(refTotalWithZeros(e, zeros)); est.Hi > max {
		est.Hi = max
	}
	return est, nil
}

// refFractionPruned estimates the fraction of elements satisfying pred over
// the union of loaded and proven-zero strata. When zeros is empty it is
// exactly Fraction.
func refFractionPruned[V comparable](e *StratifiedEstimator[V], pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	cnt, err := refCountPruned(e, pred, zeros)
	if err != nil {
		return Estimate{}, err
	}
	N := float64(refTotalWithZeros(e, zeros))
	out := Estimate{
		Value:  cnt.Value / N,
		StdErr: cnt.StdErr / N,
		Lo:     cnt.Lo / N,
		Hi:     cnt.Hi / N,
		Exact:  cnt.Exact,
	}
	if out.Hi > 1 {
		out.Hi = 1
	}
	return out, nil
}

// refBoundedFractionProvenZero extends BoundedFraction with a proven-zero
// population term: totalPop elements are requested, s covers s.ParentSize
// of them, provenZero of them are sketch-proven to contribute no matches,
// and only the remainder is truly unknown:
//
//	p_total ∈ [w·p_lo , w·p_hi + u]   w = covered/total, u = unknown/total
//
// and the point estimate is that interval's centre before sampling error,
// w·p̂ + u/2 (see extend). With provenZero == 0 it delegates to
// refBoundedFraction unchanged (the two formulas agree algebraically but not
// bit-for-bit, and the zero-pruning case must stay byte-identical to the
// pre-sketch path).
func refBoundedFractionProvenZero[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	if provenZero <= 0 {
		return refBoundedFraction(s, pred, confidence, totalPop)
	}
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
	unknown := totalPop - covered - provenZero
	if unknown < 0 {
		unknown = 0
	}
	w := float64(covered) / float64(totalPop)
	u := float64(unknown) / float64(totalPop)
	est = refExtend(est, w, u)
	// Exact only if nothing is genuinely unknown and the covered estimate
	// was exact (the proven-zero strata contribute exactly zero matches).
	est.Exact = est.Exact && unknown == 0
	return est, nil
}

// refBoundedCountProvenZero is refBoundedFractionProvenZero scaled to a count
// over totalPop elements; with provenZero == 0 it delegates to BoundedCount.
func refBoundedCountProvenZero[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	if provenZero <= 0 {
		return refBoundedCount(s, pred, confidence, totalPop)
	}
	frac, err := refBoundedFractionProvenZero[V](s, pred, confidence, totalPop, provenZero)
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

// refProxyHalfWidthProvenZeroZ extends refProxyHalfWidthZ with a proven-zero
// population: zero-proven partitions tighten the ignorance term from
// (1−w)/2 to unknown/(2·total) because their contribution is known exactly.
// With provenZero ≤ 0 it delegates to refProxyHalfWidthZ unchanged.
func refProxyHalfWidthProvenZeroZ(n, coveredPop, totalPop, provenZero int64, z float64) float64 {
	if provenZero <= 0 {
		return refProxyHalfWidthZ(n, coveredPop, totalPop, z)
	}
	if coveredPop <= 0 || totalPop <= 0 {
		// Everything answerable is proven zero: the answer is exact 0 when
		// the zeros cover the request, otherwise only the unknown remains.
		if totalPop > 0 && provenZero >= totalPop {
			return 0
		}
		if totalPop > 0 {
			return float64(totalPop-provenZero) / float64(totalPop) / 2
		}
		return 0.5
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
	unknown := totalPop - coveredPop - provenZero
	if unknown < 0 {
		unknown = 0
	}
	w := float64(coveredPop) / float64(totalPop)
	return w*z*se + float64(unknown)/float64(totalPop)/2
}

// refAllProven: every readable partition was proven out of range: zero
// matches, exactly — byte-identical to what the unpruned estimator returns
// for strata that contain no matching value (count and fraction alike). The
// answer is exact when every pruned partition held an exhaustive sample.
func refAllProven(zeros []ZeroStratum) Estimate {
	e := Estimate{Exact: true}
	for _, z := range zeros {
		if !z.Exhaustive {
			e.Exact = false
			break
		}
	}
	return e
}
