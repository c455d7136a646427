package warehouse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/randx"
	"samplewh/internal/sketch"
)

// The warehouse has one read operation — a uniform sample of the union of a
// partition subset (the paper's S_K, Theorem 1) — and this file is its one
// executor. Error/time bounds and sketch pruning are policies over that
// operation, steered by query fields, not separate paths: every exported read
// entry point (MergedSample*, Window*, MergedSamplePlanned, StratifiedRange)
// fills in a query and calls run, whose six stages each exist once
// (DESIGN.md §9): resolve → prune → order → load → combine → account.

// query is one read request.
type query[V comparable] struct {
	// op names the request in errors and error events: "merge", "range" or
	// "sketch".
	op      string
	dataset string
	ids     []string // empty = every partition of the data set
	window  int      // with no ids: only the most recent window partitions (0 = all)
	// partial selects skip-and-report for unreadable partitions; strict
	// queries fail on the first one.
	partial bool
	// strata asks for the loaded partitions as the strata of a range
	// estimate instead of one merged sample.
	strata bool
	// Bounds order the partitions by the planner and stop early; SketchRange
	// prove-prunes before anything is loaded.
	PlannedQuery[V]
}

// prunes reports whether the sidecar proof loop runs. An unbounded merged
// sample has no report to carry a dropped partition's population in, so it
// never prunes (and stays byte-identical to the plain merge).
func (q *query[V]) prunes() bool {
	return q.SketchRange != nil && (q.strata || q.Bounds.Bounded())
}

// verb is op as error messages spell it.
func (q *query[V]) verb() string {
	if q.Bounds.Bounded() {
		return "planned " + q.op
	}
	return q.op
}

// wrap names the operation and data set in front of err.
func (q *query[V]) wrap(err error) error {
	return fmt.Errorf("warehouse: %s %s: %w", q.verb(), q.dataset, err)
}

// result is what run produces: sample for a merge, strata plus zeros for a
// range query (strata nil when every readable partition was proven out of
// range), and exec when the query was bounded.
type result[V comparable] struct {
	sample *core.Sample[V]
	strata *core.Stratified[V]
	zeros  []estimate.ZeroStratum
	cov    MergeCoverage
	exec   *PlanExecution
}

// catalogView is what one query reads from the catalog, copied under a
// single RLock so the stages after resolve never touch shared state.
type catalogView struct {
	ids          []string
	alg          Algorithm
	mergeWorkers int
	// stats is the planner's registry for ids (bounded queries only);
	// sketches holds their valid sidecars (pruning, strata and sketch-union
	// queries only). The load stage adds the entries it repairs to both.
	stats    map[string]PartitionStats
	sketches map[string]*sketch.Summary
}

// resolve is stage 1: snapshot the catalog and validate the partition set.
func (w *Warehouse[V]) resolve(q *query[V], sidecars bool) (catalogView, error) {
	var v catalogView
	w.mu.RLock()
	ds, ok := w.sets[q.dataset]
	if !ok {
		w.mu.RUnlock()
		return v, unknownDataset(q.dataset)
	}
	v.alg = ds.cfg.Algorithm
	v.mergeWorkers = w.mergeWorkers
	if v.ids = slices.Clone(q.ids); len(v.ids) == 0 {
		v.ids = ds.ids()
		if q.window > 0 && q.window < len(v.ids) {
			v.ids = v.ids[len(v.ids)-q.window:]
		}
	}
	if q.Bounds.Bounded() {
		v.stats = make(map[string]PartitionStats, len(v.ids))
	}
	if sidecars {
		v.sketches = make(map[string]*sketch.Summary, len(v.ids))
	}
	if v.stats != nil || v.sketches != nil {
		for _, id := range v.ids {
			p := ds.byID[id]
			if p == nil {
				continue
			}
			if v.stats != nil && p.known {
				v.stats[id] = p.stats
			}
			if v.sketches != nil && validSketch(p.sketch) != nil {
				v.sketches[id] = p.sketch
			}
		}
	}
	w.mu.RUnlock()
	if len(v.ids) == 0 {
		return v, fmt.Errorf("warehouse: data set %q %w", q.dataset, ErrNoPartitions)
	}
	seen := make(map[string]bool, len(v.ids))
	for _, id := range v.ids {
		if seen[id] {
			return v, fmt.Errorf("warehouse: %w %q in merge set", ErrDuplicatePartition, id)
		}
		seen[id] = true
	}
	return v, nil
}

// prune is stage 2: drop every partition whose sidecar proves no value in
// q.SketchRange, before the loader sees anything. A pruned partition joins
// res.zeros with its population — an exactly-zero contribution — and
// cov.SketchPruned. It returns the partitions still to be read.
func (w *Warehouse[V]) prune(ctx context.Context, q *query[V], v *catalogView, res *result[V]) []string {
	if !q.prunes() {
		return v.ids
	}
	span := obs.SpanFromContext(ctx).Start("sketch_prune")
	var live []string
	var checks int64
	for _, id := range v.ids {
		if sk := v.sketches[id]; sk != nil {
			checks++
			if sk.ProvablyOutside(q.SketchRange.Lo, q.SketchRange.Hi) {
				res.zeros = append(res.zeros, estimate.ZeroStratum{Pop: sk.Count, Exhaustive: sk.Exhaustive})
				res.cov.SketchPruned = append(res.cov.SketchPruned, id)
				continue
			}
		}
		live = append(live, id)
	}
	if len(live) == 0 && !q.strata {
		// Every partition was proven out of range, but a merge must return a
		// sample to answer from: un-prune the first; the loaded partition
		// contributes its provably-zero matches honestly.
		live = []string{res.cov.SketchPruned[0]}
		res.cov.SketchPruned = res.cov.SketchPruned[1:]
		res.zeros = res.zeros[1:]
	}
	span.SetValue("checked", int64(len(v.ids)))
	span.SetValue("pruned", int64(len(res.cov.SketchPruned)))
	span.End()
	w.o.sketchPruneChecks.Add(checks)
	w.o.sketchPruned.Add(int64(len(res.cov.SketchPruned)))
	return live
}

// waveCap bounds one load wave. Waves are sized by the planner's prediction
// of how many partitions are still needed, clamped to the loader's worker
// bound and this cap, so a loose prediction cannot overshoot the stop point
// by a whole worker-pool round.
const waveCap = 8

// stopRule is a bounded query's plan and early-stop state (DESIGN.md §14).
type stopRule[V comparable] struct {
	q           *query[V]
	v           *catalogView
	plan        plan.QueryPlan
	exec        *PlanExecution
	z           float64
	start       time.Time
	maxWave     int
	unknownLeft int
}

// order is stage 3 for bounded queries (unbounded ones keep request order):
// rank the live partitions by the planner — unknown statistics first, then
// cache residents, then population per predicted load cost, weighted by
// sketch range overlap — and set up the stop rule that walks the plan.
func (w *Warehouse[V]) order(q *query[V], v *catalogView, live []string, res *result[V], start time.Time) (*stopRule[V], []string, error) {
	confidence := q.Confidence
	if confidence == 0 {
		confidence = 0.95
	}
	z, err := estimate.ZCrit(confidence)
	if err != nil {
		return nil, nil, q.wrap(err)
	}
	stats := make([]plan.PartitionStat, len(live))
	for i, id := range live {
		key := w.key(q.dataset, id)
		ps := plan.PartitionStat{ID: id, Cached: w.ld.resident(key), LoadNS: w.ld.ewmaNS(key)}
		if st, ok := v.stats[id]; ok {
			ps.Known = true
			ps.SampleSize = st.SampleSize
			ps.ParentSize = st.ParentSize
			ps.Footprint = st.Footprint
		}
		if sk := v.sketches[id]; sk != nil {
			ps.Weight = sk.RangeOverlap(q.SketchRange.Lo, q.SketchRange.Hi)
		}
		stats[i] = ps
	}
	pl := plan.Build(stats, q.Bounds, plan.Config{Confidence: confidence})
	w.o.plans.Inc()
	var provenZero int64
	for _, zs := range res.zeros {
		provenZero += zs.Pop
	}
	res.exec = &PlanExecution{
		Plan:              pl,
		TotalPop:          pl.TotalPop + provenZero,
		Proven:            res.zeros,
		ProvenZeroPop:     provenZero,
		AchievedHalfWidth: -1,
	}
	maxWave := max(1, min(w.ld.workerBound(), waveCap))
	ordered := make([]string, len(pl.Steps))
	for i, st := range pl.Steps {
		ordered[i] = st.Stat.ID
	}
	return &stopRule[V]{q: q, v: v, plan: pl, exec: res.exec, z: z, start: start,
		maxWave: maxWave, unknownLeft: pl.Unknown}, ordered, nil
}

// openSpan starts the "plan" span a bounded query runs under: its load/merge
// children partition the execution time and its labels carry the chosen plan
// and the early-stop decision for explain and the slow-query log.
func (r *stopRule[V]) openSpan(parent *obs.Span, cov *MergeCoverage) *obs.Span {
	span := parent.Start("plan")
	span.SetValue("partitions", int64(len(r.plan.Steps)))
	span.SetValue("predicted_stop", int64(r.plan.PredictedStop))
	span.SetValue("total_population", r.exec.TotalPop)
	if len(cov.SketchPruned) > 0 {
		span.SetValue("sketch_pruned", int64(len(cov.SketchPruned)))
		span.SetValue("proven_zero_population", r.exec.ProvenZeroPop)
	}
	if b := r.q.Bounds; b.MaxErr > 0 {
		span.SetLabel("maxerr", strconv.FormatFloat(b.MaxErr, 'g', -1, 64))
	}
	if d := r.q.Bounds.MaxTime; d > 0 {
		span.SetLabel("maxtime", d.String())
	}
	return span
}

// wave sizes the next load wave from plan step idx: the planner's prediction
// of what MaxErr still needs, clamped to maxWave and trimmed to what the
// MaxTime budget predicts is affordable. 0 means the budget is spent. The
// first wave always runs: a too-tight budget yields the smallest non-empty
// answer rather than an error.
func (r *stopRule[V]) wave(idx int, acc *core.Sample[V]) int {
	budget, elapsed := r.q.Bounds.MaxTime, time.Since(r.start)
	timed := budget > 0 && idx > 0
	if timed && elapsed >= budget {
		return 0
	}
	var accN, covered int64
	if acc != nil {
		accN, covered = acc.Size(), acc.ParentSize
	}
	n := max(1, min(r.plan.NeededFrom(idx, accN, covered, r.z), r.maxWave))
	if !timed {
		return n
	}
	afford := 0
	var cost int64
	for _, st := range r.plan.Steps[idx : idx+n] {
		cost += st.CostNS
		if time.Duration(cost) > budget-elapsed {
			break
		}
		afford++
	}
	return afford
}

// met absorbs a finished wave of n plan steps from idx, records the running
// interval over acc, and reports whether MaxErr is met. A partition planned
// without statistics counts toward the total population only now that the
// load stage has measured it, and while any such partition is unloaded the
// total is not yet known, so no bound can honestly be declared met.
func (r *stopRule[V]) met(idx, n int, acc *core.Sample[V]) bool {
	r.exec.Loaded += n
	for _, st := range r.plan.Steps[idx : idx+n] {
		if ps, ok := r.v.stats[st.Stat.ID]; ok && !st.Stat.Known {
			r.unknownLeft--
			r.exec.TotalPop += ps.ParentSize
		}
	}
	if acc == nil || r.q.HalfWidth == nil || r.unknownLeft > 0 {
		return false
	}
	hw, ok := r.q.HalfWidth(acc, r.exec.TotalPop, r.exec.ProvenZeroPop)
	if !ok {
		return false
	}
	r.exec.AchievedHalfWidth = hw
	return r.q.Bounds.MaxErr > 0 && hw <= r.q.Bounds.MaxErr
}

// finish closes the execution report: everything past plan step idx was
// never loaded and is reported as Pruned, not Skipped — the answer is not
// degraded, it is exactly as partial as the caller allowed.
func (r *stopRule[V]) finish(acc *core.Sample[V], idx int, stop string, cov *MergeCoverage, span *obs.Span) {
	r.exec.StopReason = stop
	r.exec.CoveredPop = acc.ParentSize
	r.exec.ElapsedNS = time.Since(r.start).Nanoseconds()
	for _, st := range r.plan.Steps[idx:] {
		cov.Pruned = append(cov.Pruned, st.Stat.ID)
	}
	span.SetLabel("stop", stop)
	span.SetValue("loaded", int64(r.exec.Loaded))
	span.SetValue("pruned", int64(len(cov.Pruned)))
	span.SetValue("covered_population", r.exec.CoveredPop)
	if hw := r.exec.AchievedHalfWidth; hw >= 0 {
		span.SetLabel("achieved_half_width", strconv.FormatFloat(hw, 'g', 4, 64))
	}
}

// loadWave is stage 4: fetch one wave of partitions through the loader and
// classify every failure. A context error fails the query even in partial
// mode — nobody is waiting for the answer, and degrading around the
// cancellation would only hide it; any other error fails a strict query and
// is skipped, reported and counted in a partial one. It returns the samples
// that loaded, in request order, and appends their ids to cov.Merged.
//
// The stage also repairs the registries from the samples it has in hand
// (manifests written before a registry existed): a bounded query backfills
// missing planner statistics, and a query holding sidecars rebuilds missing
// ones so the next query can prune. Both persist on the next catalog write.
func (w *Warehouse[V]) loadWave(ctx context.Context, parent *obs.Span, q *query[V], v *catalogView, ids []string, cov *MergeCoverage) ([]*core.Sample[V], error) {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = w.key(q.dataset, id)
	}
	span := parent.Start("load")
	span.SetValue("partitions", int64(len(keys)))
	results := w.ld.load(obs.ContextWithSpan(ctx, span), keys)
	span.End()
	samples := make([]*core.Sample[V], 0, len(ids))
	var fixes []partition
	for i, r := range results {
		id := ids[i]
		if r.err != nil {
			err := fmt.Errorf("warehouse: %s %s: load %s: %w", q.verb(), q.dataset, id, r.err)
			if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) {
				return nil, err
			}
			w.o.fail(q.op, q.dataset, id, err)
			if !q.partial {
				return nil, err
			}
			cov.Skipped = append(cov.Skipped, SkippedPartition{ID: id, Reason: skipReason(err), Err: err})
			w.o.skippedPartitions.Inc()
			continue
		}
		cov.Merged = append(cov.Merged, id)
		// A zero-population partition holds no data and contributes nothing
		// to any stratum sum; NewStratified rejects it, so keep it out of the
		// strata (identically with pruning on or off).
		if !q.strata || r.s.ParentSize > 0 {
			samples = append(samples, r.s)
		}
		fix := partition{id: id}
		if _, known := v.stats[id]; v.stats != nil && !known {
			fix.stats, fix.known = statsOf(r.s), true
			v.stats[id] = fix.stats
		}
		if v.sketches != nil && v.sketches[id] == nil {
			if fix.sketch = w.autoSketch(r.s); fix.sketch != nil {
				v.sketches[id] = fix.sketch
			}
		}
		if fix.known || fix.sketch != nil {
			fixes = append(fixes, fix)
		}
	}
	w.backfill(q.dataset, fixes)
	return samples, nil
}

// combine is stage 5 for merges: one "merge" span and one merge_ns
// observation around the Merge of got — the whole input set of an unbounded
// query (acc is nil) or one wave of a bounded one, with acc as one more input.
// Theorem 1 makes every such result a valid uniform sample of the covered
// union, which is what lets the stop rule evaluate the interval between waves.
// The loaded samples, shared with the cache, are only read, and the result
// aliases none of them.
func (w *Warehouse[V]) combine(ctx context.Context, parent *obs.Span, q *query[V], v *catalogView, acc *core.Sample[V], got []*core.Sample[V], src *randx.RNG) (*core.Sample[V], int64, error) {
	inputs := got
	if acc != nil {
		inputs = append([]*core.Sample[V]{acc}, got...)
	}
	span := parent.Start("merge")
	span.SetValue("inputs", int64(len(got)))
	t := w.o.mergeNS.Start()
	var err error
	if len(got) > 0 { // a wave in which nothing loaded leaves acc as it was
		workers := resolveMergeWorkers(v.mergeWorkers)
		span.SetValue("workers", int64(workers))
		acc, err = Merge(obs.ContextWithSpan(ctx, span), v.alg, inputs, src, workers)
	}
	ns := t.Stop()
	span.SetError(err)
	span.End()
	if err != nil {
		err = q.wrap(err)
		w.o.fail(q.op, q.dataset, "", err)
		return nil, ns, err
	}
	return acc, ns, nil
}

// Merge is the one place a merge is chosen: a uniform sample of the union of
// samples of disjoint partitions of a data set sampled by alg. SB's merge is
// the union at the minimum rate with no bound (core.UnionBernoulli); HB's and
// HR's is core.MergeK. Both only read their inputs and return a fresh sample.
// The executor's combine stage and the cluster coordinator's fold of its shard
// samples are its callers.
func Merge[V comparable](ctx context.Context, alg Algorithm, samples []*core.Sample[V], src *randx.RNG, workers int) (*core.Sample[V], error) {
	if alg == AlgSB {
		return core.UnionBernoulli(samples, src)
	}
	return core.MergeK(ctx, samples, src, workers)
}

// account is stage 6 for merges: the one site for the merge counters and the
// EvMerge/EvPartialMerge events. ns is the merge time of an unbounded query
// and the whole execution time of a bounded one.
func (w *Warehouse[V]) account(q *query[V], res *result[V], ns int64) {
	cov := &res.cov
	w.o.merges.Inc()
	w.o.mergeInputs.Observe(int64(len(cov.Merged)))
	if n := len(cov.Pruned); n > 0 {
		w.o.earlyStops.Inc()
		w.o.partitionsPruned.Add(int64(n))
	}
	if cov.Partial() {
		w.o.partialMerges.Inc()
		w.o.event(obs.EvPartialMerge, q.dataset, "", nil, map[string]int64{
			"requested": int64(len(cov.Requested)),
			"merged":    int64(len(cov.Merged)),
			"skipped":   int64(len(cov.Skipped)),
		})
	}
	if !w.o.reg.Tracing() {
		return
	}
	var labels map[string]string
	values := map[string]int64{
		"inputs":      int64(len(cov.Merged)),
		"sample_size": res.sample.Size(),
		"parent_size": res.sample.ParentSize,
		"ns":          ns,
	}
	if res.exec != nil {
		labels = map[string]string{"mode": "planned", "stop": res.exec.StopReason}
		values["pruned"] = int64(len(cov.Pruned))
	}
	w.o.event(obs.EvMerge, q.dataset, "", labels, values)
}

// splitRNG draws the query's merge randomness: exactly one Split per
// sample-producing query, none for strata. Where it is drawn is part of the
// seeded contract — a bounded query draws once its plan is built, an
// unbounded one only after its partitions loaded — so a query that fails
// early consumes what it always has and seeded runs stay byte-identical.
func (w *Warehouse[V]) splitRNG() *randx.RNG {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rng.Split()
}

// run executes one query through the six stages. Cancellation is checked
// before every load wave and between load and merge, and inside the loader
// between partition loads.
func (w *Warehouse[V]) run(ctx context.Context, q query[V]) (result[V], error) {
	var res result[V]
	if q.Bounds.MaxErr > 0 && q.HalfWidth == nil {
		return res, fmt.Errorf("warehouse: maxerr bound without a half-width evaluator")
	}
	start := time.Now()

	v, err := w.resolve(&q, q.strata || q.prunes())
	if err != nil {
		return res, err
	}
	res.cov.Requested = v.ids
	ordered := w.prune(ctx, &q, &v, &res)

	// Stage spans (load, merge) are siblings under span — the caller's span,
	// or the plan span of a bounded query — so their durations partition the
	// request time the way explain reports it.
	span := obs.SpanFromContext(ctx)
	var rule *stopRule[V]
	var src *randx.RNG
	if q.Bounds.Bounded() {
		if rule, ordered, err = w.order(&q, &v, ordered, &res, start); err != nil {
			return res, err
		}
		span = rule.openSpan(span, &res.cov)
		defer span.End()
		src = w.splitRNG()
	}

	// Load in waves. An unbounded query has one wave, everything, combined
	// after the loop; a bounded one folds each wave as it lands and asks its
	// stop rule whether to go on.
	var acc *core.Sample[V]
	var samples []*core.Sample[V]
	idx, stop := 0, "exhausted"
	for idx < len(ordered) {
		if err := ctx.Err(); err != nil {
			return res, q.wrap(err)
		}
		n := len(ordered) - idx
		if rule != nil {
			if n = rule.wave(idx, acc); n == 0 {
				stop = "maxtime"
				break
			}
		}
		got, err := w.loadWave(ctx, span, &q, &v, ordered[idx:idx+n], &res.cov)
		if err != nil {
			return res, err
		}
		idx += n
		if rule == nil {
			samples = got
			continue
		}
		if acc, _, err = w.combine(ctx, span, &q, &v, acc, got, src); err != nil {
			return res, err
		}
		if rule.met(idx-n, n, acc) && idx < len(ordered) {
			stop = "maxerr"
			break
		}
	}

	if acc == nil && len(samples) == 0 && !(q.strata && len(res.zeros) > 0) {
		return res, fmt.Errorf("warehouse: %s %s: %w (of %d requested)",
			q.verb(), q.dataset, ErrNoReadablePartitions, len(v.ids))
	}
	var ns int64
	switch {
	case rule != nil:
		rule.finish(acc, idx, stop, &res.cov, span)
		ns = res.exec.ElapsedNS
	case ctx.Err() != nil:
		return res, q.wrap(ctx.Err())
	case q.strata:
		if len(samples) > 0 {
			if res.strata, err = core.NewStratified(samples...); err != nil {
				return res, q.wrap(err)
			}
		}
		return res, nil
	default:
		if acc, ns, err = w.combine(ctx, span, &q, &v, nil, samples, w.splitRNG()); err != nil {
			return res, err
		}
	}
	res.sample = acc
	w.account(&q, &res, ns)
	return res, nil
}
