package estimate

import (
	"cmp"
	"fmt"
	"math"

	"samplewh/internal/core"
)

// The reference: the interval arithmetic the composition in design.go
// replaced, one function per former special case, kept verbatim (renamed ref…,
// methods turned into functions of their estimator) so the differential test
// can hold Interval and ProxyWidth to it. refAllProven is the all-proven
// branch of the server's former rangeEstimate.

// refInterval finishes an Estimate from a point value and standard error.
func refInterval[V cmp.Ordered](e *Estimator[V], value, stderr float64) Estimate {
	exact := e.s.Kind == core.Exhaustive
	if exact {
		stderr = 0
	}
	return Estimate{
		Value:  value,
		StdErr: stderr,
		Lo:     value - e.z*stderr,
		Hi:     value + e.z*stderr,
		Exact:  exact,
	}
}

// refFraction estimates the fraction of data-set elements whose value
// satisfies pred (the selectivity of the predicate).
func refFraction[V cmp.Ordered](e *Estimator[V], pred func(V) bool) (Estimate, error) {
	n := e.s.Size()
	if n == 0 {
		return Estimate{}, fmt.Errorf("estimate: empty sample")
	}
	var match int64
	e.s.Hist.Each(func(v V, c int64) {
		if pred(v) {
			match += c
		}
	})
	return refShare(e, float64(match)/float64(n)), nil
}

// refShare is the interval of a proportion p of the sample, clamped to [0, 1].
func refShare[V cmp.Ordered](e *Estimator[V], p float64) Estimate {
	est := refInterval(e, p, srsSE(p, e.s.Size(), e.s.ParentSize))
	est.Lo, est.Hi = max(est.Lo, 0), min(est.Hi, 1)
	return est
}

// refAvg estimates the mean of f(v) over the data set.
func refAvg[V cmp.Ordered](e *Estimator[V], f func(V) float64) (Estimate, error) {
	n := e.s.Size()
	if n == 0 {
		return Estimate{}, fmt.Errorf("estimate: empty sample")
	}
	var sum, sumsq float64
	e.s.Hist.Each(func(v V, c int64) {
		x := f(v)
		sum += x * float64(c)
		sumsq += x * x * float64(c)
	})
	mean := sum / float64(n)
	var se float64
	if n > 1 {
		variance := (sumsq - sum*mean) / float64(n-1)
		if variance < 0 {
			variance = 0
		}
		se = math.Sqrt(variance/float64(n)) * fpc(n, e.s.ParentSize)
	}
	return refInterval(e, mean, se), nil
}

// refSum estimates the total of f(v) over the data set: N times the mean.
func refSum[V cmp.Ordered](e *Estimator[V], f func(V) float64) (Estimate, error) {
	avg, err := refAvg(e, f)
	if err != nil {
		return Estimate{}, err
	}
	N := float64(e.s.ParentSize)
	return refInterval(e, avg.Value*N, avg.StdErr*N), nil
}

// refStratSum estimates the total of f(v) over the union of the strata:
// T̂ = Σ_h N_h·ȳ_h with variance Σ_h N_h²(1−n_h/N_h)s_h²/n_h.
func refStratSum[V cmp.Ordered](e *StratifiedEstimator[V], f func(V) float64) (Estimate, error) {
	var total, variance float64
	exact := true
	for i, s := range e.st.Strata() {
		n := float64(s.Size())
		if n == 0 {
			return Estimate{}, fmt.Errorf("estimate: stratum %d has an empty sample", i)
		}
		N := float64(s.ParentSize)
		var sum, sumsq float64
		s.Hist.Each(func(v V, c int64) {
			x := f(v)
			sum += x * float64(c)
			sumsq += x * x * float64(c)
		})
		mean := sum / n
		total += N * mean
		if s.Kind != core.Exhaustive {
			exact = false
			if n > 1 {
				sVar := (sumsq - sum*mean) / (n - 1)
				if sVar < 0 {
					sVar = 0
				}
				fpc := 1 - n/N
				if fpc < 0 {
					fpc = 0
				}
				variance += N * N * fpc * sVar / n
			}
		}
	}
	se := math.Sqrt(variance)
	if exact {
		se = 0
	}
	return Estimate{
		Value:  total,
		StdErr: se,
		Lo:     total - e.z*se,
		Hi:     total + e.z*se,
		Exact:  exact,
	}, nil
}

// refStratAvg estimates the population mean of f(v): Sum / N_total.
func refStratAvg[V cmp.Ordered](e *StratifiedEstimator[V], f func(V) float64) (Estimate, error) {
	sum, err := refStratSum(e, f)
	if err != nil {
		return Estimate{}, err
	}
	N := float64(e.st.ParentSize())
	return Estimate{
		Value:  sum.Value / N,
		StdErr: sum.StdErr / N,
		Lo:     sum.Lo / N,
		Hi:     sum.Hi / N,
		Exact:  sum.Exact,
	}, nil
}

// refBoundedFraction estimates the predicate selectivity over a requested
// population of totalPop elements from a sample covering only s.ParentSize of
// them. The interval combines the covered-union sampling interval with the
// worst-case contribution of the uncovered remainder; at full coverage
// (totalPop ≤ s.ParentSize) it is exactly Fraction.
func refBoundedFraction[V cmp.Ordered](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop int64) (Estimate, error) {
	e, err := NewWithConfidence(s, confidence)
	if err != nil {
		return Estimate{}, err
	}
	est, err := refFraction(e, pred)
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
func refBoundedCount[V cmp.Ordered](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop int64) (Estimate, error) {
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
func refTotalWithZeros[V cmp.Ordered](e *StratifiedEstimator[V], zeros []ZeroStratum) int64 {
	total := e.st.ParentSize()
	for _, z := range zeros {
		total += z.Pop
	}
	return total
}

// refCountPruned estimates the number of elements satisfying pred across the
// loaded strata plus the proven-zero strata. When zeros is empty it is
// exactly Count.
func refCountPruned[V cmp.Ordered](e *StratifiedEstimator[V], pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	est, err := refStratSum(e, func(v V) float64 {
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
func refFractionPruned[V cmp.Ordered](e *StratifiedEstimator[V], pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
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
func refBoundedFractionProvenZero[V cmp.Ordered](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	if provenZero <= 0 {
		return refBoundedFraction(s, pred, confidence, totalPop)
	}
	e, err := NewWithConfidence(s, confidence)
	if err != nil {
		return Estimate{}, err
	}
	est, err := refFraction(e, pred)
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
func refBoundedCountProvenZero[V cmp.Ordered](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
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
