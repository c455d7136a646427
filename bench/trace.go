package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/plan"
	"samplewh/internal/randx"
	"samplewh/internal/samplecache"
	"samplewh/internal/server"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// span is one timed call made by the harness. Parent is the index of the
// span whose work this call replays a part of, -1 for a depth-(a) request or
// a stand-alone unit cost. Depths are separate executions, so a child does
// not nest inside its parent in time: the link says "the parent did this
// too", and self time is the parent's duration minus its children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) stop(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

func (t *tracer) do(name string, parent, op int, fn func()) int {
	i := t.start(name, parent, op)
	fn()
	t.stop(i)
	return i
}

// selfTimes returns each span's duration minus the durations of the spans
// that name it as parent. It can come out negative: children are separate
// executions with their own random draws, and the parent may run in parallel
// what the replay runs in turn.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// replayer executes ops layer by layer against the served warehouse.
type replayer struct {
	b        *bench
	tr       *tracer
	ctx      context.Context
	rng      *randx.RNG
	cache    *samplecache.Cache[int64] // the harness's own instance, for samplecache.get_us
	samples  map[string][]float64      // values of the metrics that are not a span's median
	failures int
}

func (rp *replayer) note(name string, v float64) { rp.samples[name] = append(rp.samples[name], v) }

func (rp *replayer) fail(format string, args ...any) {
	rp.failures++
	if rp.failures <= 8 {
		fmt.Printf("  problem: "+format+"\n", args...)
	}
}

func partNames(parts []int) []string {
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = partName(p)
	}
	return names
}

// passA sends the op's requests over the loopback connection.
func (rp *replayer) passA(o *op, ord int) []int {
	ids := make([]int, len(o.reqs))
	for i := range o.reqs {
		r := &o.reqs[i]
		var status int
		var err error
		ids[i] = rp.tr.do("op.http", -1, ord, func() { status, _, err = rp.b.cl.do(r) })
		if err != nil || status != r.want {
			rp.fail("loopback %s %s: status %d, err %v", r.method, r.path, status, err)
		}
	}
	return ids
}

// passB calls the handler directly, into a recorder.
func (rp *replayer) passB(o *op, ord int, parents []int) []int {
	h := rp.b.st.srv.Handler()
	ids := make([]int, len(o.reqs))
	for i := range o.reqs {
		r := &o.reqs[i]
		var body *bytes.Reader
		if r.body != nil {
			body = bytes.NewReader(r.body)
		} else {
			body = bytes.NewReader(nil)
		}
		req := httptest.NewRequest(r.method, r.path, body)
		if r.key != "" {
			req.Header.Set("Idempotency-Key", r.key)
		}
		rec := httptest.NewRecorder()
		ids[i] = rp.tr.do("server.handler", parents[i], ord, func() { h.ServeHTTP(rec, req) })
		if rec.Code != r.want {
			rp.fail("handler %s %s: status %d", r.method, r.path, rec.Code)
		}
	}
	return ids
}

// passCD calls the warehouse entry point the handler would pick, then the
// leaves under it by hand, on the same partitions. unit adds the stand-alone
// unit costs (serial tree, one pairwise merge whole and unrolled).
func (rp *replayer) passCD(o *op, ord int, parents []int, unit bool) {
	for i := range o.reqs {
		r := &o.reqs[i]
		switch r.kind {
		case kindAvg, kindQuantile:
			rp.merge(r, ord, parents[i], unit)
		case kindCount, kindFraction:
			rp.rangeQuery(r, ord, parents[i])
		case kindBounded:
			rp.planned(r, ord, parents[i])
		case kindPut:
			rp.ingest(r, ord, parents[i])
		case kindDelete:
			var err error
			rp.tr.do("warehouse.rollout", parents[i], ord, func() {
				err = rp.b.st.wh.RollOut(datasetName, partName(r.part))
			})
			if err != nil {
				rp.fail("RollOut %s: %v", partName(r.part), err)
			}
		}
	}
}

// query times one warehouse entry point, the bytes it allocated, and how
// many of its partition loads missed the cache. metric, if not empty, is the
// per-layer metric that reports this entry point's own median.
func (rp *replayer) query(metric string, parent, ord int, fn func() error) (q, missed int) {
	var m0, m1 runtime.MemStats
	before := rp.b.st.wh.CacheStats().Misses
	runtime.ReadMemStats(&m0)
	var err error
	q = rp.tr.do("warehouse.query", parent, ord, func() { err = fn() })
	runtime.ReadMemStats(&m1)
	missed = int(rp.b.st.wh.CacheStats().Misses - before)
	if err != nil {
		rp.fail("warehouse query: %v", err)
	}
	rp.note("warehouse.alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	if metric != "" {
		rp.note(metric, float64(rp.tr.spans[q].End-rp.tr.spans[q].Start)/1e3)
	}
	return q, missed
}

// load replays the load stage for ids: the warehouse's own per-partition
// load (cache hit and clone, or store get, decode and cache fill), then the
// leaves it is made of. missed is how many of the entry point's loads missed
// the cache. It returns private clones to merge.
func (rp *replayer) load(ids []string, missed, parent, ord int) []*core.Sample[int64] {
	wh, st := rp.b.st.wh, rp.b.st.store
	if missed >= len(ids) {
		rp.emptyCache()
	}
	// One goroutine per partition behind a 4×GOMAXPROCS semaphore, as the
	// warehouse's loader runs them.
	errs := make([]error, len(ids))
	sem := make(chan struct{}, 4*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	ld := rp.tr.start("warehouse.load", parent, ord)
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = wh.PartitionSampleContext(rp.ctx, datasetName, id)
		}()
	}
	wg.Wait()
	rp.tr.stop(ld)
	for i, err := range errs {
		if err != nil {
			rp.fail("load %s: %v", ids[i], err)
		}
	}

	clones := make([]*core.Sample[int64], 0, len(ids))
	for i, id := range ids {
		key := datasetName + "/" + id
		// A load that missed the cache also fetched and decoded; one that hit
		// did not, and its fetch and decode are timed as unit costs only.
		fetchParent := -1
		if i < missed {
			fetchParent = ld
		}
		var raw []byte
		var smp *core.Sample[int64]
		var err error
		rp.tr.do("storage.get_raw", fetchParent, ord, func() { raw, err = st.GetRaw(key) })
		if err == nil {
			rp.tr.do("storage.decode", fetchParent, ord, func() { smp, err = st.DecodeRaw(raw) })
		}
		if err != nil {
			rp.fail("fetch %s: %v", id, err)
			continue
		}
		rp.note("storage.bytes_per_partition", float64(len(raw)))
		rp.cache.Put(key, smp)
		rp.tr.do("samplecache.get", ld, ord, func() { rp.cache.Get(key) })
		var c *core.Sample[int64]
		cl := rp.tr.do("core.clone", ld, ord, func() { c = smp.Clone() })
		rp.tr.do("histogram.clone", cl, ord, func() { smp.Hist.Clone() })
		clones = append(clones, c)
	}
	return clones
}

// emptyCache re-applies the query configuration, which discards the sample
// cache. A depth that found nothing cached has just cached what it loaded;
// emptying lets the next depth of the same op start as cold as it did.
func (rp *replayer) emptyCache() {
	rp.b.st.wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: rp.b.sc.cacheBytes(rp.b.workload)})
}

// recool empties the cache if every load since before missed it.
func (rp *replayer) recool(before samplecache.Stats) {
	after := rp.b.st.wh.CacheStats()
	missed := after.Misses - before.Misses
	if looked := missed + after.Hits - before.Hits; looked > 0 && missed == looked {
		rp.emptyCache()
	}
}

func cloneAll(in []*core.Sample[int64]) []*core.Sample[int64] {
	out := make([]*core.Sample[int64], len(in))
	for i, s := range in {
		out[i] = s.Clone()
	}
	return out
}

func sampleMeta(s *core.Sample[int64]) server.SampleMeta {
	return server.SampleMeta{Kind: s.Kind.String(), Size: s.Size(), ParentSize: s.ParentSize,
		Fraction: s.Fraction(), Q: s.Q, Footprint: s.Footprint()}
}

func (rp *replayer) encode(resp *server.EstimateResponse, parent, ord int) {
	rp.tr.do("server.encode", parent, ord, func() {
		if _, err := json.Marshal(resp); err != nil {
			rp.fail("encode: %v", err)
		}
	})
}

// merge replays an avg or quantile estimate over named partitions.
func (rp *replayer) merge(r *request, ord, parent int, unit bool) {
	wh := rp.b.st.wh
	ids := partNames(r.parts)
	q, missed := rp.query("", parent, ord, func() error {
		_, _, err := wh.MergedSamplePartialContext(rp.ctx, datasetName, ids...)
		return err
	})
	clones := rp.load(ids, missed, q, ord)
	if len(clones) < 2 {
		return
	}
	var spare []*core.Sample[int64]
	if unit {
		spare = cloneAll(clones)
	}
	workers := runtime.GOMAXPROCS(0)
	var merged *core.Sample[int64]
	var err error
	rp.tr.do("core.merge_tree", q, ord, func() {
		merged, err = core.MergeTreeParallel(clones, core.HRMerge[int64], rp.rng.Split(), workers)
	})
	if err != nil {
		rp.fail("merge tree: %v", err)
		return
	}
	rp.note("core.merges_per_op", float64(len(ids)-1))

	resp := &server.EstimateResponse{Dataset: datasetName, Confidence: 0.95, Sample: sampleMeta(merged),
		Coverage: server.Coverage{Requested: ids, Merged: ids}}
	rp.tr.do("estimate.answer", parent, ord, func() {
		if r.kind == kindAvg {
			est, _ := estimate.NewWithConfidence(merged, 0.95)
			e, aerr := est.Avg(func(v int64) float64 { return float64(v) })
			resp.Query, resp.Estimate, err = "avg", &e, aerr
			return
		}
		oe, oerr := estimate.NewOrdered(merged, func(a, b int64) bool { return a < b })
		if err = oerr; err == nil {
			v, qerr := oe.Quantile(r.q)
			resp.Query, resp.Quantile, err = "quantile", &v, qerr
		}
	})
	if err != nil {
		rp.fail("estimate: %v", err)
	}
	rp.encode(resp, parent, ord)

	if !unit {
		return
	}
	// Unit costs, outside the tree: the same merge on one worker, one
	// n_F × n_F pairwise merge whole, and one unrolled into its three steps.
	serial := cloneAll(spare)
	rp.tr.do("core.merge_tree_serial", -1, ord, func() {
		_, err = core.MergeTreeParallel(serial, core.HRMerge[int64], rp.rng.Split(), 1)
	})
	a, b := spare[0], spare[1]
	a2, b2 := a.Clone(), b.Clone()
	rp.tr.do("core.merge_pair", -1, ord, func() { _, err = core.HRMerge(a2, b2, rp.rng.Split()) })
	src := rp.rng.Split()
	k := min(a.Size(), b.Size())
	pair := rp.tr.start("core.merge_pair_unrolled", -1, ord)
	var l int64
	rp.tr.do("randx.hypergeom", pair, ord, func() { l = randx.Hypergeometric(src, a.ParentSize, b.ParentSize, k) })
	rp.tr.do("core.purge", pair, ord, func() { core.PurgeReservoir(a.Hist, l, src) })
	rp.tr.do("core.purge", pair, ord, func() { core.PurgeReservoir(b.Hist, k-l, src) })
	rp.tr.do("histogram.join", pair, ord, func() { a.Hist.Join(b.Hist) })
	rp.tr.stop(pair)
}

// pruneCheck replays the sidecar range checks over ids and returns the
// partitions the range does not exclude.
func (rp *replayer) pruneCheck(ids []string, lo, hi int64, parent, ord int) (survivors []string, zeros []estimate.ZeroStratum) {
	snap, err := rp.b.st.wh.SketchSnapshot(datasetName)
	if err != nil {
		rp.fail("sketch snapshot: %v", err)
		return ids, nil
	}
	rp.tr.do("sketch.prune_check", parent, ord, func() {
		for _, id := range ids {
			if sk := snap[id]; sk != nil && sk.ProvablyOutside(lo, hi) {
				zeros = append(zeros, estimate.ZeroStratum{Pop: sk.Count, Exhaustive: sk.Exhaustive})
			} else {
				survivors = append(survivors, id)
			}
		}
	})
	return survivors, zeros
}

// rangeQuery replays a count or fraction over every live partition: the
// stratified path, which prunes by sidecar and never merges.
func (rp *replayer) rangeQuery(r *request, ord, parent int) {
	wh := rp.b.st.wh
	q, missed := rp.query("warehouse.stratified_us", parent, ord, func() error {
		_, _, _, err := wh.StratifiedRange(rp.ctx, datasetName, nil, warehouse.SketchRange{Lo: r.lo, Hi: r.hi}, true, true)
		return err
	})
	all, _ := wh.Partitions(datasetName)
	survivors, zeros := rp.pruneCheck(all, r.lo, r.hi, q, ord)
	strata := rp.load(survivors, missed, q, ord)
	if len(strata) == 0 {
		return
	}
	pred := func(v int64) bool { return v >= r.lo && v <= r.hi }
	resp := &server.EstimateResponse{Dataset: datasetName, Confidence: 0.95,
		Coverage: server.Coverage{Requested: all, Merged: survivors}}
	rp.tr.do("estimate.stratified", parent, ord, func() {
		st, err := core.NewStratified(strata...)
		if err != nil {
			rp.fail("stratify: %v", err)
			return
		}
		est, err := estimate.NewStratifiedWithConfidence(st, 0.95)
		if err != nil {
			rp.fail("stratified estimator: %v", err)
			return
		}
		var e estimate.Estimate
		if r.kind == kindCount {
			e, err = est.CountPruned(pred, zeros)
		} else {
			e, err = est.FractionPruned(pred, zeros)
		}
		if err != nil {
			rp.fail("stratified estimate: %v", err)
		}
		resp.Estimate = &e
	})
	rp.encode(resp, parent, ord)
}

// planned replays a bounded fraction: plan, load in plan order, serial folds.
func (rp *replayer) planned(r *request, ord, parent int) {
	wh := rp.b.st.wh
	ids := partNames(r.parts)
	pred := func(v int64) bool { return v >= r.lo && v <= r.hi }
	bounds := plan.Bounds{MaxErr: r.maxErr}
	pq := warehouse.PlannedQuery[int64]{Bounds: bounds, Confidence: 0.95,
		SketchRange: &warehouse.SketchRange{Lo: r.lo, Hi: r.hi},
		HalfWidth: func(acc *core.Sample[int64], totalPop, provenZero int64) (float64, bool) {
			e, err := estimate.BoundedFractionProvenZero(acc, pred, 0.95, totalPop, provenZero)
			return estimate.HalfWidth(e), err == nil
		}}
	var cov warehouse.MergeCoverage
	var exec *warehouse.PlanExecution
	q, missed := rp.query("warehouse.planned_us", parent, ord, func() error {
		var err error
		_, cov, exec, err = wh.MergedSamplePlanned(rp.ctx, datasetName, ids, true, pq)
		return err
	})
	if exec == nil {
		return
	}
	steps := len(exec.Plan.Steps)
	rp.note("plan.early_stop_ratio", float64(steps-exec.Loaded)/float64(max(steps, 1)))

	survivors, _ := rp.pruneCheck(ids, r.lo, r.hi, q, ord)
	known, _ := wh.PartitionStatsSnapshot(datasetName)
	stats := make([]plan.PartitionStat, 0, len(survivors))
	for _, id := range survivors {
		s := known[id]
		stats = append(stats, plan.PartitionStat{ID: id, Known: true, Cached: true,
			SampleSize: s.SampleSize, ParentSize: s.ParentSize, Footprint: s.Footprint})
	}
	rp.tr.do("plan.build", q, ord, func() { plan.Build(stats, bounds, plan.Config{Confidence: 0.95}) })

	clones := rp.load(cov.Merged, missed, q, ord)
	if len(clones) == 0 {
		return
	}
	var acc *core.Sample[int64]
	var err error
	rp.tr.do("core.merge_serial", q, ord, func() {
		acc, err = core.MergeSerial(clones, core.HRMerge[int64], rp.rng.Split())
	})
	if err != nil {
		rp.fail("serial folds: %v", err)
		return
	}
	rp.note("core.merges_per_op", float64(len(clones)-1))
	resp := &server.EstimateResponse{Dataset: datasetName, Query: "fraction", Confidence: 0.95, Sample: sampleMeta(acc),
		Coverage: server.Coverage{Requested: ids, Merged: cov.Merged, SketchPruned: cov.SketchPruned, Pruned: cov.Pruned}}
	rp.tr.do("estimate.answer", parent, ord, func() {
		e, err := estimate.BoundedFractionProvenZero(acc, pred, 0.95, exec.TotalPop, exec.ProvenZeroPop)
		if err != nil {
			rp.fail("bounded estimate: %v", err)
		}
		resp.Estimate = &e
	})
	rp.encode(resp, parent, ord)
}

// ingestChunk is the journal frame size the ingest handler uses.
const ingestChunk = 4096

// ingest replays one roll-in by hand, step for step as the handler does it,
// and leaves the partition rolled in.
func (rp *replayer) ingest(r *request, ord, parent int) {
	wh, st, journal := rp.b.st.wh, rp.b.st.store, rp.b.st.journal
	part := partName(r.part)
	rows := float64(rp.b.sc.rows)

	vals := make([]int64, 0, rp.b.sc.rows)
	rp.tr.do("server.ingest_scan", parent, ord, func() {
		sc := bufio.NewScanner(bytes.NewReader(r.body))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				v, _ := strconv.ParseInt(line, 10, 64)
				vals = append(vals, v)
			}
		}
	})
	sampler, err := wh.NewPartitionSampler(datasetName, part, 0)
	if err != nil {
		rp.fail("sampler %s: %v", part, err)
		return
	}
	feed := rp.tr.do("core.hr_feed", parent, ord, func() {
		for _, v := range vals {
			sampler.Feed(v)
		}
	})
	rp.note("core.hr_feed_ns_per_row", float64(rp.tr.spans[feed].End-rp.tr.spans[feed].Start)/rows)

	entry, err := journal.Begin(datasetName, part, r.key, 0)
	if err != nil {
		rp.fail("journal begin: %v", err)
		return
	}
	defer entry.Abort()
	ap := rp.tr.do("wal.append", parent, ord, func() {
		for lo := 0; lo < len(vals) && err == nil; lo += ingestChunk {
			err = entry.Append(vals[lo:min(lo+ingestChunk, len(vals))])
		}
	})
	rp.note("wal.append_us_per_krow", float64(rp.tr.spans[ap].End-rp.tr.spans[ap].Start)/1e3/(rows/1000))
	if err == nil {
		rp.tr.do("wal.seal", parent, ord, func() { err = entry.Seal(int64(len(vals))) })
	}
	if err != nil {
		rp.fail("journal: %v", err)
		return
	}
	var sample *core.Sample[int64]
	rp.tr.do("core.finalize", parent, ord, func() { sample, err = sampler.Finalize() })
	if err != nil {
		rp.fail("finalize: %v", err)
		return
	}
	ri := rp.tr.do("warehouse.rollin", parent, ord, func() { err = wh.RollIn(datasetName, part, sample) })
	if err != nil {
		rp.fail("RollIn %s: %v", part, err)
		return
	}
	if err := entry.Commit(); err != nil {
		rp.fail("journal commit: %v", err)
	}

	// What RollIn is made of: an encode and an atomic put (to a scratch key
	// beside the data set), and the sidecar build; the rest is the manifest.
	scratchKey := "benchscratch/" + part
	put := rp.tr.do("storage.put", ri, ord, func() { err = st.Put(scratchKey, sample) })
	if err != nil {
		rp.fail("scratch put: %v", err)
	}
	rp.tr.do("storage.encode", put, ord, func() { _, err = storage.EncodeSample(sample, storage.Int64Codec{}) })
	if err := st.Delete(scratchKey); err != nil {
		rp.fail("scratch delete: %v", err)
	}
	rp.tr.do("sketch.build", ri, ord, func() { sketch.FromSample(sample) })
}

// layerNames lists every per-layer metric, in BENCHMARK.json order. A metric
// the workload never reaches reads 0.
var layerNames = []string{
	"server.http_us", "server.handler_self_us", "server.encode_us", "server.ingest_scan_us",
	"server.shed_per_kop", "server.errors_per_kop",
	"warehouse.query_us", "warehouse.query_self_us", "warehouse.load_us", "warehouse.planned_us",
	"warehouse.stratified_us", "warehouse.rollin_us", "warehouse.rollout_us",
	"warehouse.partitions_loaded_per_op", "warehouse.alloc_kb_per_query",
	"plan.build_us", "plan.early_stop_ratio",
	"samplecache.hit_ratio", "samplecache.evictions_per_op", "samplecache.invalidations_per_roll", "samplecache.get_us",
	"storage.get_raw_us", "storage.decode_us", "storage.encode_us", "storage.put_us",
	"storage.gets_per_op", "storage.bytes_per_partition",
	"wal.append_us_per_krow", "wal.seal_us", "wal.fsyncs_per_roll", "wal.bytes_per_row",
	"core.clone_us", "core.merge_tree_us", "core.merge_tree_serial_us", "core.merge_pair_us", "core.purge_us",
	"core.merges_per_op", "core.hr_feed_ns_per_row", "core.finalize_us",
	"histogram.clone_us", "histogram.join_us",
	"randx.hypergeom_us",
	"estimate.answer_us", "estimate.stratified_us",
	"sketch.prune_check_us", "sketch.pruned_ratio", "sketch.build_us",
	"bench.replay_accounted_frac", "bench.trace_overhead_frac", "bench.host_steal_frac", "bench.host_ref_us",
}

// spanMetrics maps a span name to the metric its median duration reports.
var spanMetrics = map[string]string{
	"server.encode": "server.encode_us", "server.ingest_scan": "server.ingest_scan_us",
	"warehouse.query": "warehouse.query_us", "warehouse.load": "warehouse.load_us",
	"warehouse.rollin": "warehouse.rollin_us", "warehouse.rollout": "warehouse.rollout_us",
	"plan.build": "plan.build_us", "samplecache.get": "samplecache.get_us",
	"storage.get_raw": "storage.get_raw_us", "storage.decode": "storage.decode_us",
	"storage.encode": "storage.encode_us", "storage.put": "storage.put_us",
	"wal.seal":   "wal.seal_us",
	"core.clone": "core.clone_us", "core.merge_tree": "core.merge_tree_us",
	"core.merge_tree_serial": "core.merge_tree_serial_us", "core.merge_pair": "core.merge_pair_us",
	"core.purge": "core.purge_us", "core.finalize": "core.finalize_us",
	"histogram.clone": "histogram.clone_us", "histogram.join": "histogram.join_us",
	"randx.hypergeom": "randx.hypergeom_us",
	"estimate.answer": "estimate.answer_us", "estimate.stratified": "estimate.stratified_us",
	"sketch.prune_check": "sketch.prune_check_us", "sketch.build": "sketch.build_us",
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Stamp  stamp              `json:"env"`
	Note   string             `json:"note"`
	Layers map[string]float64 `json:"layers"`
	Counts map[string]int     `json:"sample_counts"`
	Spans  []span             `json:"spans"`
}

const traceNote = "Each depth is a separate execution of the same op: (a) op.http over the loopback connection, " +
	"(b) server.handler by ServeHTTP into a recorder, (c) warehouse.* entry points, (d) the leaves by hand. " +
	"parent links a span to the span whose work it replays a part of; merges are randomised, so children match " +
	"parents in distribution, not draw for draw. Self time is a span's duration minus its children's. " +
	"Spans with parent -1 other than op.http are stand-alone unit costs. Times are ns since the replay began."

// traced is the --trace 1 run: the same set-up and warm-up, then the first
// sc.replayOps ops of the stream executed at every depth.
func traced(outDir string, sc scale, workload string, seed uint64) (resultLine, error) {
	b, err := setUp(outDir, sc, workload, seed)
	if err != nil {
		return resultLine{}, err
	}
	defer b.close()
	st := newStream(sc, workload, seed, b.st.addr, b.pool, b.digest)
	warm := drive(b.cl, st, sc.warmup, 1, false, refPlan{})
	runtime.GC()

	rp := &replayer{b: b, tr: &tracer{t0: time.Now()}, ctx: context.Background(),
		rng: randx.New(seed ^ 0x7ace), cache: samplecache.New[int64](sc.cacheBytes(workload)),
		samples: make(map[string][]float64)}
	// The depths are interleaved op by op — (a), (b), then (c) and (d) — so
	// the heap, the caches and the host are in the same state for all of one
	// op's depths. A read workload replays the same op at every depth; a
	// rolling one cannot write a partition twice, so each depth takes the next
	// cycle of the stream: the same four requests on later partition numbers.
	n := sc.replayOps
	if rolling(workload) {
		n = sc.replayOps / 4
	}
	pick := func(i int) *op {
		if rolling(workload) {
			return st.take()
		}
		return &st.ops[i]
	}
	// Registry counters are read around depth (a) only: what the served path
	// itself counted.
	counted := make(map[string]float64)
	counters := []string{"server.shed", "server.errors", "samplecache.hits", "samplecache.misses",
		"samplecache.evictions", "samplecache.invalidations", "storage.file.gets", "wal.fsyncs", "wal.bytes",
		"sketch.prune_checks", "sketch.pruned_partitions"}
	delta := func(name string) float64 { return counted[name] }

	hostBefore := readHost()
	httpUS := make([]float64, n)
	handlerUS := make([]float64, n)
	for i := 0; i < n; i++ {
		if interrupted.Load() {
			return resultLine{}, errInterrupted
		}
		for _, name := range counters {
			counted[name] -= float64(b.st.reg.Counter(name).Value())
		}
		cache := b.st.wh.CacheStats()
		spansA := rp.passA(pick(i), i)
		for _, name := range counters {
			counted[name] += float64(b.st.reg.Counter(name).Value())
		}
		rp.recool(cache)
		httpUS[i] = rp.sumUS(spansA)
		cache = b.st.wh.CacheStats()
		spansB := rp.passB(pick(i), i, spansA)
		rp.recool(cache)
		handlerUS[i] = rp.sumUS(spansB)
		rp.passCD(pick(i), i, spansB, i%4 == 0)
	}
	var ref []float64
	for i := 0; i < 64; i++ {
		t := time.Now()
		refKernel()
		ref = append(ref, float64(time.Since(t))/1e3)
	}
	hostAfter := readHost()
	shutdownErr := b.close()
	if shutdownErr != nil {
		rp.fail("shutdown: %v", shutdownErr)
	}

	// Medians by span name, then the metrics that are ratios and differences.
	byName := make(map[string][]float64)
	self := selfTimes(rp.tr.spans)
	var handlerSelf, querySelf []float64
	var entryDur, entryKids float64
	for i, s := range rp.tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e3)
		switch s.Name {
		case "server.handler":
			handlerSelf = append(handlerSelf, float64(self[i])/1e3)
		case "warehouse.query":
			querySelf = append(querySelf, float64(self[i])/1e3)
		}
		if s.Name == "warehouse.query" || s.Name == "warehouse.rollin" {
			entryDur += float64(s.End - s.Start)
			entryKids += float64(s.End - s.Start - self[i])
		}
	}
	layers := make(map[string]float64, len(layerNames))
	counts := make(map[string]int, len(layerNames))
	set := func(name string, v float64, n int) { layers[name], counts[name] = v, n }
	for _, name := range layerNames {
		set(name, 0, 0)
	}
	for spanName, name := range spanMetrics {
		set(name, median(byName[spanName]), len(byName[spanName]))
	}
	for name, v := range rp.samples {
		switch name {
		case "core.merges_per_op", "plan.early_stop_ratio", "storage.bytes_per_partition":
			set(name, mean(v), len(v))
		default:
			set(name, median(v), len(v))
		}
	}
	ops := float64(n)
	rolls := 0.0
	if rolling(workload) {
		rolls = ops
	}
	perRoll := func(v float64) float64 {
		if rolls == 0 {
			return 0
		}
		return v / rolls
	}
	set("server.http_us", median(httpUS)-median(handlerUS), n)
	set("server.handler_self_us", median(handlerSelf), len(handlerSelf))
	set("server.shed_per_kop", delta("server.shed")/ops*1000, n)
	set("server.errors_per_kop", delta("server.errors")/ops*1000, n)
	set("warehouse.query_self_us", median(querySelf), len(querySelf))
	looks := delta("samplecache.hits") + delta("samplecache.misses")
	set("warehouse.partitions_loaded_per_op", looks/ops, n)
	if looks > 0 {
		set("samplecache.hit_ratio", delta("samplecache.hits")/looks, int(looks))
	}
	set("samplecache.evictions_per_op", delta("samplecache.evictions")/ops, n)
	set("samplecache.invalidations_per_roll", perRoll(delta("samplecache.invalidations")), int(rolls))
	set("storage.gets_per_op", delta("storage.file.gets")/ops, n)
	set("wal.fsyncs_per_roll", perRoll(delta("wal.fsyncs")), int(rolls))
	set("wal.bytes_per_row", perRoll(delta("wal.bytes"))/float64(sc.rows), int(rolls))
	if checks := delta("sketch.prune_checks"); checks > 0 {
		set("sketch.pruned_ratio", delta("sketch.pruned_partitions")/checks, int(checks))
	}
	if entryDur > 0 {
		set("bench.replay_accounted_frac", entryKids/entryDur, len(byName["warehouse.query"])+len(byName["warehouse.rollin"]))
	}
	// The traced loopback pass against the untraced second half of the
	// warm-up on the same stream: what recording spans costs.
	if base := percentile(latenciesMS(warm.ops[len(warm.ops)/2:]), 50) * 1e3; base > 0 {
		set("bench.trace_overhead_frac", (median(httpUS)-base)/base, n)
	}
	if d := hostAfter.cpuTotal - hostBefore.cpuTotal; d > 0 {
		set("bench.host_steal_frac", (hostAfter.cpuSteal-hostBefore.cpuSteal)/d, 1)
	}
	set("bench.host_ref_us", median(ref), len(ref))

	m := make(map[string]metric, len(layerNames))
	for _, name := range layerNames {
		m[name] = metric{layers[name], layerUnit(name)}
	}
	res := resultLine{Correct: rp.failures == 0, Attempted: n, Failed: min(rp.failures, n), Metrics: m}
	fmt.Printf("workload %s seed %d traced: %d ops replayed at 4 depths, %d spans, ops_sha256 %s\n",
		workload, seed, n, len(rp.tr.spans), st.sha256())
	fmt.Println("  children match parents in distribution, not draw for draw (merges are randomised)")
	printMetrics(m, counts)
	tf := traceFile{Stamp: newStamp(sc, workload, seed, 0), Note: traceNote, Layers: layers, Counts: counts, Spans: rp.tr.spans}
	if err := writeJSON(filepath.Join(outDir, workload+".trace.json"), tf); err != nil {
		return res, err
	}
	return res, nil
}

func (rp *replayer) sumUS(ids []int) float64 {
	var ns int64
	for _, i := range ids {
		ns += rp.tr.spans[i].End - rp.tr.spans[i].Start
	}
	return float64(ns) / 1e3
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// layerUnit reads a per-layer metric's unit off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_row"):
		return "ns"
	case strings.HasSuffix(name, "_us") || strings.HasSuffix(name, "_us_per_krow"):
		return "us"
	case strings.HasSuffix(name, "_kb_per_query"):
		return "KiB"
	case strings.HasSuffix(name, "bytes_per_partition") || strings.HasSuffix(name, "bytes_per_row"):
		return "B"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_frac"):
		return "frac"
	}
	return "count"
}
