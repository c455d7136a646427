package warehouse

import (
	"cmp"
	"context"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/plan"
)

// PlannedQuery configures one bounded merge (DESIGN.md §14).
type PlannedQuery[V cmp.Ordered] struct {
	// Bounds are the caller's targets. The zero value makes
	// MergedSamplePlanned the ordinary full merge.
	Bounds plan.Bounds
	// Confidence shapes the planner's predictions (0 → 0.95). The actual
	// stop decision always uses HalfWidth.
	Confidence float64
	// HalfWidth returns the fraction-scale half-width of the answer the
	// caller would build from acc extended to totalPop elements, of which
	// provenZero are sketch-proven to contribute no matches (the design
	// estimate.Planned describes), or ok=false when the query kind defines
	// no error bound (a maxtime-only query). Required when Bounds.MaxErr > 0.
	HalfWidth func(acc *core.Sample[V], totalPop, provenZero int64) (float64, bool)
	// SketchRange, when non-nil, is the query's value range: partitions
	// whose sketch sidecar proves zero overlap are dropped from the plan
	// before the loader runs (reported as SketchPruned, their population in
	// ProvenZeroPop), and surviving steps are weighted by sketch overlap so
	// the planner loads probable contributors first.
	SketchRange *SketchRange
}

// PlanExecution reports how a bounded merge actually ran.
type PlanExecution struct {
	// Plan is the ordered plan the executor followed.
	Plan plan.QueryPlan
	// Loaded counts partitions the executor fetched (folded or skipped);
	// a bounded query's whole point is Loaded < len(Plan.Steps).
	Loaded int
	// StopReason is "maxerr" (error bound met with partitions to spare),
	// "maxtime" (budget exhausted), or "exhausted" (the full plan ran).
	StopReason string
	// AchievedHalfWidth is the final fraction-scale half-width, -1 when no
	// interval was computable (maxtime-only queries without an evaluator).
	AchievedHalfWidth float64
	// CoveredPop and TotalPop are the populations behind the answer: the
	// merged union versus every requested partition. Their ratio is the
	// coverage fraction in the bounded interval.
	CoveredPop int64
	TotalPop   int64
	// Proven are the partitions a sketch sidecar proved out of the query's
	// range — counted in TotalPop, never loaded, and contributing exactly
	// zero matches to the answer's interval — and ProvenZeroPop their summed
	// population.
	Proven        []estimate.ZeroStratum
	ProvenZeroPop int64
	ElapsedNS     int64
}

// MergedSamplePlanned is the bounded query path: it plans the partition
// order from the statistics registry (cache residency first, then population
// per predicted load cost), loads in predicted-size waves, folds serially in
// plan order, and stops as soon as the running interval meets Bounds.MaxErr
// or the MaxTime budget is about to expire. Unloaded partitions are reported
// as Pruned, not Skipped — the answer is not degraded, it is exactly as
// partial as the caller allowed. With zero Bounds it is byte-identical to
// MergedSamplePartialContext/MergedSampleContext (the same executor, with no
// plan and no PlanExecution).
func (w *Warehouse[V]) MergedSamplePlanned(ctx context.Context, dataset string, partitionIDs []string, partial bool, q PlannedQuery[V]) (*core.Sample[V], MergeCoverage, *PlanExecution, error) {
	res, err := w.run(ctx, query[V]{op: "merge", dataset: dataset, ids: partitionIDs, partial: partial, PlannedQuery: q})
	return res.sample, res.cov, res.exec, err
}
