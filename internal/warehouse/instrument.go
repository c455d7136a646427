package warehouse

import (
	"samplewh/internal/obs"
)

// instrumentable is satisfied by samplers that accept metric routing (all of
// the core samplers do). NewPartitionSampler uses it so the warehouse can instrument
// whatever sampler family the data set's configuration selects.
type instrumentable interface {
	Instrument(reg *obs.Registry)
}

// whObs bundles the warehouse's cached metric handles. The zero value (all
// nil) makes every recording call a no-op; Warehouse.Instrument swaps in a
// live bundle.
//
// Metric names (see README.md §Observability):
//
//	warehouse.rollins / .rollouts / .attaches    partition lifecycle (counters)
//	warehouse.merges                             merged samples produced (counter)
//	warehouse.partial_merges                     degraded merges that skipped partitions (counter)
//	warehouse.skipped_partitions                 partitions skipped across all partial merges (counter)
//	warehouse.recoveries                         manifest reconciliations run (counter)
//	warehouse.errors                             failed operations (counter)
//	warehouse.rollin_sample_size                 histogram of rolled-in sizes
//	warehouse.merge_inputs                       histogram of merge fan-in
//	warehouse.merge_ns                           merge latency histogram
//	warehouse.<dataset>.partitions               live partition count (gauge)
//	warehouse.partition_stats_entries            planner registry size (gauge)
//	warehouse.partition_sketch_entries           sketch sidecar registry size (gauge)
//	plan.plans                                   bounded queries planned (counter)
//	plan.early_stops                             executions stopped before the full plan (counter)
//	plan.partitions_pruned                       partitions a bounded query never loaded (counter)
//	plan.stats_backfills                         registry entries repaired on the query path (counter)
//	sketch.builds                                sidecars built at roll-in/attach (counter)
//	sketch.backfills                             sidecars rebuilt lazily on the query path (counter)
//	sketch.pruned_partitions                     partitions prove-pruned from range queries, = coverage's SketchPruned (counter)
//	sketch.prune_checks                          partitions tested against a range sketch (counter)
//	sketch.unions                                sketch-union distinct/topk answers served (counter)
type whObs struct {
	reg *obs.Registry

	rollIns           *obs.Counter
	rollOuts          *obs.Counter
	attaches          *obs.Counter
	merges            *obs.Counter
	partialMerges     *obs.Counter
	skippedPartitions *obs.Counter
	recoveries        *obs.Counter
	errors            *obs.Counter

	plans            *obs.Counter
	earlyStops       *obs.Counter
	partitionsPruned *obs.Counter
	statBackfills    *obs.Counter

	sketchBuilds      *obs.Counter
	sketchBackfills   *obs.Counter
	sketchPruned      *obs.Counter
	sketchPruneChecks *obs.Counter
	sketchUnions      *obs.Counter

	rollInSize  *obs.Histogram
	mergeInputs *obs.Histogram
	mergeNS     *obs.Histogram
}

// newWHObs caches the warehouse metric handles; nil registry → no-op bundle.
func newWHObs(r *obs.Registry) whObs {
	return whObs{
		reg:               r,
		rollIns:           r.Counter("warehouse.rollins"),
		rollOuts:          r.Counter("warehouse.rollouts"),
		attaches:          r.Counter("warehouse.attaches"),
		merges:            r.Counter("warehouse.merges"),
		partialMerges:     r.Counter("warehouse.partial_merges"),
		skippedPartitions: r.Counter("warehouse.skipped_partitions"),
		recoveries:        r.Counter("warehouse.recoveries"),
		errors:            r.Counter("warehouse.errors"),
		plans:             r.Counter("plan.plans"),
		earlyStops:        r.Counter("plan.early_stops"),
		partitionsPruned:  r.Counter("plan.partitions_pruned"),
		statBackfills:     r.Counter("plan.stats_backfills"),
		sketchBuilds:      r.Counter("sketch.builds"),
		sketchBackfills:   r.Counter("sketch.backfills"),
		sketchPruned:      r.Counter("sketch.pruned_partitions"),
		sketchPruneChecks: r.Counter("sketch.prune_checks"),
		sketchUnions:      r.Counter("sketch.unions"),
		rollInSize:        r.Histogram("warehouse.rollin_sample_size"),
		mergeInputs:       r.Histogram("warehouse.merge_inputs"),
		mergeNS:           r.Histogram("warehouse.merge_ns"),
	}
}
