package estimate

import (
	"fmt"
	"math"

	"samplewh/internal/core"
)

// StratifiedEstimator answers approximate queries from a stratified sample
// (per-partition samples kept separate, paper §4.1) using the classical
// stratified-expansion estimators: per-stratum means are scaled by stratum
// population sizes and the variances combine with finite-population
// corrections. When strata differ systematically (e.g. daily partitions
// with drifting value distributions), these estimates are tighter than the
// ones obtained from a merged sample of the same total size.
type StratifiedEstimator[V comparable] struct {
	st *core.Stratified[V]
	z  float64
}

// NewStratified builds a stratified estimator at 95% confidence.
func NewStratified[V comparable](st *core.Stratified[V]) (*StratifiedEstimator[V], error) {
	return NewStratifiedWithConfidence(st, 0.95)
}

// NewStratifiedWithConfidence builds a stratified estimator at an explicit
// confidence level (0.90, 0.95, or 0.99).
func NewStratifiedWithConfidence[V comparable](st *core.Stratified[V], confidence float64) (*StratifiedEstimator[V], error) {
	if st == nil || st.NumStrata() == 0 {
		return nil, fmt.Errorf("estimate: nil or empty stratified sample")
	}
	z, err := ZCrit(confidence)
	if err != nil {
		return nil, err
	}
	return &StratifiedEstimator[V]{st: st, z: z}, nil
}

// Sum estimates the total of f(v) over the union of the strata:
// T̂ = Σ_h N_h·ȳ_h with variance Σ_h N_h²(1−n_h/N_h)s_h²/n_h.
func (e *StratifiedEstimator[V]) Sum(f func(V) float64) (Estimate, error) {
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

// Avg estimates the population mean of f(v): Sum / N_total.
func (e *StratifiedEstimator[V]) Avg(f func(V) float64) (Estimate, error) {
	sum, err := e.Sum(f)
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

// CountPruned is Interval's count over the strata plus the proven-zero
// strata. It remains only because bench/trace.go compiles against it; ROADMAP
// item 1(a), which rewrites that replay, deletes it.
func (e *StratifiedEstimator[V]) CountPruned(pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	return Interval(Design[V]{Strata: e.st, Proven: zeros}, pred, false, e.z)
}

// FractionPruned is CountPruned's fraction, kept for the same reason.
func (e *StratifiedEstimator[V]) FractionPruned(pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	return Interval(Design[V]{Strata: e.st, Proven: zeros}, pred, true, e.z)
}
