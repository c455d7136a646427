package estimate

import (
	"cmp"
	"fmt"

	"samplewh/internal/core"
)

// StratifiedEstimator answers approximate queries from a stratified sample
// (per-partition samples kept separate, paper §4.1) using the classical
// stratified-expansion estimators: per-stratum means are scaled by stratum
// population sizes and the variances combine with finite-population
// corrections. When strata differ systematically (e.g. daily partitions
// with drifting value distributions), these estimates are tighter than the
// ones obtained from a merged sample of the same total size.
type StratifiedEstimator[V cmp.Ordered] struct {
	st *core.Stratified[V]
	z  float64
}

// NewStratified builds a stratified estimator at 95% confidence.
func NewStratified[V cmp.Ordered](st *core.Stratified[V]) (*StratifiedEstimator[V], error) {
	return NewStratifiedWithConfidence(st, 0.95)
}

// NewStratifiedWithConfidence builds a stratified estimator at an explicit
// confidence level (0.90, 0.95, or 0.99).
func NewStratifiedWithConfidence[V cmp.Ordered](st *core.Stratified[V], confidence float64) (*StratifiedEstimator[V], error) {
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
	return Interval(Design[V]{Strata: e.st}, "sum", f, e.z)
}

// Avg estimates the population mean of f(v): Sum / N_total.
func (e *StratifiedEstimator[V]) Avg(f func(V) float64) (Estimate, error) {
	return Interval(Design[V]{Strata: e.st}, "avg", f, e.z)
}

// CountPruned is Interval's count over the strata plus the proven-zero
// strata. It remains only because bench/trace.go compiles against it; ROADMAP
// item 2(b), which rewrites that replay, deletes it.
func (e *StratifiedEstimator[V]) CountPruned(pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	return Interval(Design[V]{Strata: e.st, Proven: zeros}, "count", Indicator(pred), e.z)
}

// FractionPruned is CountPruned's fraction, kept for the same reason.
func (e *StratifiedEstimator[V]) FractionPruned(pred func(V) bool, zeros []ZeroStratum) (Estimate, error) {
	return Interval(Design[V]{Strata: e.st, Proven: zeros}, "fraction", Indicator(pred), e.z)
}
