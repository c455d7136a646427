package warehouse

import (
	"context"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
)

// SketchRange is an inclusive value range a query predicates on; the sketch
// layer uses it to prove-prune partitions and weight plan steps.
type SketchRange struct {
	Lo, Hi int64
}

// StratifiedRange assembles the inputs for a stratified range-predicate
// estimate over the named partitions (all partitions when none are named):
// per-partition samples for every partition the query must observe, plus
// estimate.ZeroStratum entries for partitions whose sketch sidecar proves
// no value intersects [r.Lo, r.Hi]. Proven-out partitions are never loaded —
// that is the entire point — and are reported in coverage as SketchPruned.
//
// Replacing an out-of-range stratum by a zero stratum of the same population
// is an exact identity of the stratified expansion (see estimate.Interval),
// so the eventual estimate is byte-identical with pruning on or off. A
// sample-built sidecar proves facts about the stored sample, which is all
// any query can observe for that partition, so the identity holds for both
// sidecar provenances. Partitions with no usable sidecar are loaded and
// their sidecars backfilled for next time.
//
// With prune false every partition is loaded (the property-test baseline and
// the ?prune=0 escape hatch). partial selects skip-and-report semantics for
// unreadable partitions exactly as in MergedSamplePartialContext; context errors
// always fail. The returned Stratified is nil when every readable partition
// was proven out of range — the caller answers zero with exactness from the
// zero strata.
//
// The strata are the warehouse's loaded samples, shared with its cache: read
// them, as the estimators do, and Clone a stratum before mutating it (or
// before Stratified.Collapse, which consumes).
func (w *Warehouse[V]) StratifiedRange(ctx context.Context, dataset string, partitionIDs []string, r SketchRange, prune, partial bool) (*core.Stratified[V], []estimate.ZeroStratum, MergeCoverage, error) {
	q := query[V]{op: "range", dataset: dataset, ids: partitionIDs, partial: partial, strata: true}
	if prune {
		q.SketchRange = &r
	}
	res, err := w.run(ctx, q)
	return res.strata, res.zeros, res.cov, err
}
