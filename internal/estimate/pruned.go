package estimate

import (
	"fmt"
	"math"

	"samplewh/internal/core"
)

// Sketch-assisted pruning arithmetic (DESIGN.md §15). A range predicate
// evaluated stratum-by-stratum lets a partition whose sketch proves
// "no value in [lo,hi]" contribute without being loaded: its stratum total
// is exactly N_h·0 and its variance term exactly 0, which are the additive
// identities of the stratified expansion. Skipping the stratum and instead
// accounting its population in N_total therefore yields *bit-identical*
// floating-point results to loading it — the property the pruning
// answer-preservation test asserts.

// ZeroStratum is a partition proven (by its sketch sidecar) to contribute
// zero matches to a range predicate. Pop joins the population total;
// Exhaustive carries the companion sample's kind into the estimator's
// exactness, exactly as a loaded stratum's Kind would.
type ZeroStratum struct {
	Pop        int64
	Exhaustive bool
}

// NewStratifiedWithConfidence builds a stratified estimator at an explicit
// confidence level (0.90, 0.95, or 0.99).
func NewStratifiedWithConfidence[V comparable](st *core.Stratified[V], confidence float64) (*StratifiedEstimator[V], error) {
	if st == nil || st.NumStrata() == 0 {
		return nil, fmt.Errorf("estimate: nil or empty stratified sample")
	}
	z, err := zCrit(confidence)
	if err != nil {
		return nil, err
	}
	return &StratifiedEstimator[V]{st: st, z: z}, nil
}

// totalWithZeros is N_total across loaded strata and proven-zero strata.
// Integer addition keeps the total independent of which strata were pruned.
func (e *StratifiedEstimator[V]) totalWithZeros(zeros []ZeroStratum) int64 {
	total := e.st.ParentSize()
	for _, z := range zeros {
		total += z.Pop
	}
	return total
}

// CountPruned estimates the number of elements satisfying pred across the
// loaded strata plus the proven-zero strata. When zeros is empty it is
// exactly Count.
func (e *StratifiedEstimator[V]) CountPruned(pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
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
	if max := float64(e.totalWithZeros(zeros)); est.Hi > max {
		est.Hi = max
	}
	return est, nil
}

// FractionPruned estimates the fraction of elements satisfying pred over
// the union of loaded and proven-zero strata. When zeros is empty it is
// exactly Fraction.
func (e *StratifiedEstimator[V]) FractionPruned(pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	cnt, err := e.CountPruned(pred, zeros)
	if err != nil {
		return Estimate{}, err
	}
	N := float64(e.totalWithZeros(zeros))
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

// BoundedFractionProvenZero extends BoundedFraction with a proven-zero
// population term: totalPop elements are requested, s covers s.ParentSize
// of them, provenZero of them are sketch-proven to contribute no matches,
// and only the remainder is truly unknown:
//
//	p_total ∈ [w·p_lo , w·p_hi + u]   w = covered/total, u = unknown/total
//
// and the point estimate is that interval's centre before sampling error,
// w·p̂ + u/2 (see extend). With provenZero == 0 it delegates to
// BoundedFraction unchanged (the two formulas agree algebraically but not
// bit-for-bit, and the zero-pruning case must stay byte-identical to the
// pre-sketch path).
func BoundedFractionProvenZero[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	if provenZero <= 0 {
		return BoundedFraction(s, pred, confidence, totalPop)
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
	est = extend(est, w, u)
	// Exact only if nothing is genuinely unknown and the covered estimate
	// was exact (the proven-zero strata contribute exactly zero matches).
	est.Exact = est.Exact && unknown == 0
	return est, nil
}

// BoundedCountProvenZero is BoundedFractionProvenZero scaled to a count
// over totalPop elements; with provenZero == 0 it delegates to BoundedCount.
func BoundedCountProvenZero[V comparable](s *core.Sample[V], pred func(V) bool, confidence float64, totalPop, provenZero int64) (Estimate, error) {
	if provenZero <= 0 {
		return BoundedCount(s, pred, confidence, totalPop)
	}
	frac, err := BoundedFractionProvenZero[V](s, pred, confidence, totalPop, provenZero)
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

// ProxyHalfWidthProvenZeroZ extends ProxyHalfWidthZ with a proven-zero
// population: zero-proven partitions tighten the ignorance term from
// (1−w)/2 to unknown/(2·total) because their contribution is known exactly.
// With provenZero ≤ 0 it delegates to ProxyHalfWidthZ unchanged.
func ProxyHalfWidthProvenZeroZ(n, coveredPop, totalPop, provenZero int64, z float64) float64 {
	if provenZero <= 0 {
		return ProxyHalfWidthZ(n, coveredPop, totalPop, z)
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
