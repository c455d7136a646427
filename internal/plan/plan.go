// Package plan turns a query's partition set plus error/latency bounds into
// an ordered execution plan — the "plan" half of the warehouse's
// plan/execute split (DESIGN.md §14). The paper's merge algebra (Theorem 1)
// makes any subset of partition samples a valid uniform sample of that
// subset's union, so a bounded query does not have to touch every partition:
// the planner ranks partitions by how much population they add per predicted
// load cost and predicts how far down the ranking the executor must go
// before the answer's confidence interval meets the caller's maxerr. The
// statistics it consumes are the cheap per-partition registry entries the
// warehouse maintains at roll-in time (PS3-style), plus cache residency and
// the loader's per-partition latency EWMA.
package plan

import (
	"sort"
	"time"

	"samplewh/internal/estimate"
)

// Bounds carries a bounded query's targets. The zero value means "full
// merge" — the planner is never engaged and the query path is byte-identical
// to the unbounded one.
type Bounds struct {
	// MaxErr is the fraction-scale half-width target for the answer's
	// confidence interval (see estimate.Interval); 0 disables the error
	// bound.
	MaxErr float64
	// MaxTime is the execution budget for loading and merging; 0 disables
	// it. The first wave of loads always runs, so a too-tight budget yields
	// the smallest non-empty answer rather than an error.
	MaxTime time.Duration
}

// Bounded reports whether either bound is set.
func (b Bounds) Bounded() bool { return b.MaxErr > 0 || b.MaxTime > 0 }

// PartitionStat is one partition's planning input.
type PartitionStat struct {
	ID         string
	SampleSize int64 // stored sample rows (n)
	ParentSize int64 // population the sample covers (N)
	Footprint  int64 // stored bytes
	Cached     bool  // decoded sample resident in the read cache
	LoadNS     int64 // loader latency EWMA for this partition; 0 = unmeasured
	// Known is false when the registry holds no entry for the partition
	// (manifest written before the registry existed). Unknown partitions are
	// planned first: their population is unaccounted for, so no error bound
	// can be declared met until they have been loaded and measured.
	Known bool
	// Weight is the predicted fraction of this partition's population that
	// contributes to the query's predicate, in (0, 1] — typically a sketch
	// sidecar's range-overlap estimate. 0 means "no prediction" and plans as
	// full weight. Weight shapes only the ordering (contribution per cost);
	// coverage accounting still counts the full ParentSize, so error bounds
	// are unaffected by a wrong prediction.
	Weight float64
}

// Step is one planned partition with its predicted load cost.
type Step struct {
	Stat PartitionStat
	// CostNS is the predicted load cost: 0 for cache-resident partitions,
	// the latency EWMA when measured, otherwise a footprint-proportional
	// fallback calibrated from the partitions that do have EWMAs.
	CostNS int64
}

// QueryPlan is an ordered execution plan: load Steps in order, stop when the
// running interval meets the bounds.
type QueryPlan struct {
	Steps  []Step
	Bounds Bounds
	// TotalPop is the summed population of every known step. Unknown steps
	// contribute only after the executor loads and measures them.
	TotalPop int64
	// Unknown counts steps planned without registry statistics.
	Unknown int
	// PredictedStop is the number of steps the proxy interval predicts the
	// executor needs to satisfy MaxErr (len(Steps) when MaxErr is unset or
	// never predicted met).
	PredictedStop int
	// PredictedPop is the population covered by the first PredictedStop steps.
	PredictedPop int64
	// PredictedNS is the summed predicted load cost of those steps.
	PredictedNS int64
}

// Config tunes the planner.
type Config struct {
	// Confidence selects the critical value for the proxy interval used in
	// predictions (0.90, 0.95, 0.99; default 0.95). The executor's actual
	// stop decision uses the query's own interval, so this only shapes
	// wave sizing and the predicted stop point.
	Confidence float64
}

// Build ranks the partitions and predicts the stop point. The ordering is
// deterministic given identical statistics: unknown partitions first (their
// population must be measured before any error bound can be declared met),
// then cache-resident partitions (free to fold), then the rest by population
// added per predicted load nanosecond; ties break on ID.
func Build(stats []PartitionStat, b Bounds, cfg Config) QueryPlan {
	z := 1.959963984540054 // 0.95 default
	if cfg.Confidence != 0 {
		if zc, err := estimate.ZCrit(cfg.Confidence); err == nil {
			z = zc
		}
	}

	// Footprint-proportional cost fallback, calibrated from measured EWMAs.
	nsPerByte := calibrate(stats)
	steps := make([]Step, len(stats))
	p := QueryPlan{Bounds: b}
	for i, st := range stats {
		steps[i] = Step{Stat: st, CostNS: predictCost(st, nsPerByte)}
		if st.Known {
			p.TotalPop += st.ParentSize
		} else {
			p.Unknown++
		}
	}
	sort.SliceStable(steps, func(i, j int) bool {
		x, y := steps[i], steps[j]
		if rx, ry := rank(x), rank(y); rx != ry {
			return rx < ry
		}
		// Within a rank class, more predicted contribution per cost first.
		// Compare cross-multiplied to avoid dividing by zero-cost cached
		// entries. Weighted stats switch to float compare; the unweighted
		// path keeps exact integer arithmetic.
		wx, wy := weightOf(x.Stat), weightOf(y.Stat)
		if wx == 1 && wy == 1 {
			px := x.Stat.ParentSize * maxi64(y.CostNS, 1)
			py := y.Stat.ParentSize * maxi64(x.CostNS, 1)
			if px != py {
				return px > py
			}
		} else {
			px := wx * float64(x.Stat.ParentSize) * float64(maxi64(y.CostNS, 1))
			py := wy * float64(y.Stat.ParentSize) * float64(maxi64(x.CostNS, 1))
			if px != py {
				return px > py
			}
		}
		return x.Stat.ID < y.Stat.ID
	})
	p.Steps = steps

	// Simulate the fold in plan order with the proxy interval: merged size
	// is conservatively min(sample sizes folded so far) — exact for pairwise
	// HR merges, conservative for HB/SB — and coverage is the summed
	// population. The executor re-predicts as real numbers arrive.
	p.PredictedStop = len(steps)
	predicted := false
	if b.MaxErr > 0 && p.Unknown == 0 {
		var n, pop, ns int64
		for i, st := range steps {
			n = mergedSize(n, st.Stat.SampleSize)
			pop += st.Stat.ParentSize
			ns += st.CostNS
			if estimate.ProxyWidth(n, pop, 0, p.TotalPop, z) <= b.MaxErr {
				p.PredictedStop = i + 1
				p.PredictedPop = pop
				p.PredictedNS = ns
				predicted = true
				break
			}
		}
	}
	if !predicted {
		for _, st := range steps {
			p.PredictedPop += st.Stat.ParentSize
			p.PredictedNS += st.CostNS
		}
	}
	return p
}

// NeededFrom predicts how many of the steps from index idx onward the
// executor still needs to fold — given the current merged sample size curN
// and covered population curPop — before the proxy interval meets MaxErr.
// It returns at least 1 while steps remain (the executor always makes
// progress) and len(Steps)−idx when the bound is never predicted met. The
// executor uses it to size load waves so a bounded query does not overshoot
// by a full worker-pool round.
func (p QueryPlan) NeededFrom(idx int, curN, curPop int64, z float64) int {
	remaining := len(p.Steps) - idx
	if remaining <= 0 {
		return 0
	}
	if p.Bounds.MaxErr <= 0 {
		return remaining
	}
	// Populations measured at execution time can exceed the plan-time total
	// (unknown partitions backfilled); keep the denominator consistent.
	total := p.TotalPop
	if curPop > total {
		total = curPop
	}
	n, pop := curN, curPop
	for i := idx; i < len(p.Steps); i++ {
		st := p.Steps[i].Stat
		n = mergedSize(n, st.SampleSize)
		pop += st.ParentSize
		if estimate.ProxyWidth(n, pop, 0, total, z) <= p.Bounds.MaxErr {
			if i-idx+1 < 1 {
				return 1
			}
			return i - idx + 1
		}
	}
	return remaining
}

// weightOf normalizes a stat's contribution weight: unset (0) plans as 1.
func weightOf(s PartitionStat) float64 {
	if s.Weight <= 0 || s.Weight > 1 {
		return 1
	}
	return s.Weight
}

// rank buckets a step for the primary sort key: unknown < cached < loadable.
func rank(s Step) int {
	switch {
	case !s.Stat.Known:
		return 0
	case s.Stat.Cached:
		return 1
	default:
		return 2
	}
}

// calibrate derives a ns-per-byte cost model from the partitions that have
// measured load EWMAs; 0 means no partition has been measured yet.
func calibrate(stats []PartitionStat) float64 {
	var ns, bytes int64
	for _, st := range stats {
		if st.LoadNS > 0 && st.Footprint > 0 {
			ns += st.LoadNS
			bytes += st.Footprint
		}
	}
	if bytes == 0 {
		return 0
	}
	return float64(ns) / float64(bytes)
}

// predictCost predicts one partition's load cost in nanoseconds. With no
// EWMA anywhere, the raw footprint stands in as a relative cost — wrong in
// units but right for ranking.
func predictCost(st PartitionStat, nsPerByte float64) int64 {
	switch {
	case st.Cached:
		return 0
	case st.LoadNS > 0:
		return st.LoadNS
	case nsPerByte > 0:
		return int64(nsPerByte * float64(st.Footprint))
	default:
		return st.Footprint
	}
}

// mergedSize folds one more partition sample into the predicted merged size:
// pairwise merging bounds the result by the smaller input (HRMerge takes
// k = min(|S1|,|S2|); HB/SB re-equalized rates land near the same bound).
func mergedSize(cur, next int64) int64 {
	if cur == 0 {
		return next
	}
	if next < cur {
		return next
	}
	return cur
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
