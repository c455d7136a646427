package warehouse

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/storage"
)

// proxyHW adapts estimate.ProxyWidth as a planned query's half-width
// evaluator — the same query-agnostic worst case the server's sample endpoint
// uses.
func proxyHW(confidence float64) func(*core.Sample[int64], int64, int64) (float64, bool) {
	return func(acc *core.Sample[int64], totalPop, provenZero int64) (float64, bool) {
		z, err := estimate.ZCrit(confidence)
		if err != nil {
			return 0, false
		}
		return estimate.ProxyWidth(acc.Size(), acc.ParentSize, provenZero, totalPop, z), true
	}
}

// plannedFixture builds a warehouse with parts sequential-value partitions of
// 1000 elements each and a fixed load-worker bound so wave sizes (and hence
// the early-stop point) are deterministic.
func plannedFixture(t *testing.T, parts int) *Warehouse[int64] {
	t.Helper()
	w := newTestWarehouse(t, AlgHR, 256)
	w.ld.workers = 4
	for p := 0; p < parts; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%02d", p), int64(p)*1000, int64(p+1)*1000)
	}
	return w
}

func TestPlannedEarlyStopDeterministic(t *testing.T) {
	const parts = 16
	const maxerr = 0.2
	run := func() (*core.Sample[int64], MergeCoverage, *PlanExecution) {
		w := plannedFixture(t, parts)
		pq := PlannedQuery[int64]{
			Bounds:    plan.Bounds{MaxErr: maxerr},
			HalfWidth: proxyHW(0.95),
		}
		s, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
		if err != nil {
			t.Fatal(err)
		}
		return s, cov, exec
	}
	s, cov, exec := run()

	if exec.StopReason != "maxerr" {
		t.Fatalf("stop reason %q, want maxerr", exec.StopReason)
	}
	if exec.Loaded >= parts {
		t.Fatalf("bounded query loaded all %d partitions", exec.Loaded)
	}
	if exec.AchievedHalfWidth <= 0 || exec.AchievedHalfWidth > maxerr {
		t.Fatalf("achieved half-width %v, want in (0, %v]", exec.AchievedHalfWidth, maxerr)
	}
	if len(cov.Pruned) != parts-exec.Loaded {
		t.Fatalf("pruned %d, loaded %d, want pruned = %d", len(cov.Pruned), exec.Loaded, parts-exec.Loaded)
	}
	if len(cov.Merged) != exec.Loaded {
		t.Fatalf("merged %d != loaded %d", len(cov.Merged), exec.Loaded)
	}
	if cov.Partial() {
		t.Fatal("pruning made the answer degraded; pruned partitions are not skips")
	}

	// Identical warehouse, identical query: the plan, the stop point and the
	// merged sample itself must reproduce exactly.
	s2, cov2, exec2 := run()
	if exec2.Loaded != exec.Loaded || exec2.StopReason != exec.StopReason ||
		exec2.AchievedHalfWidth != exec.AchievedHalfWidth {
		t.Fatalf("rerun diverged: %+v vs %+v", exec2, exec)
	}
	if len(cov2.Merged) != len(cov.Merged) {
		t.Fatalf("rerun merged %v vs %v", cov2.Merged, cov.Merged)
	}
	for i := range cov.Merged {
		if cov2.Merged[i] != cov.Merged[i] {
			t.Fatalf("rerun merge order %v vs %v", cov2.Merged, cov.Merged)
		}
	}
	if s2.Kind != s.Kind || s2.ParentSize != s.ParentSize || !s2.Hist.Equal(s.Hist) {
		t.Fatal("rerun produced a different merged sample")
	}
}

// TestPlannedLoosensWithBound pins the ladder the bench demonstrates: a looser
// error bound loads no more (and eventually strictly fewer) partitions.
func TestPlannedLoosensWithBound(t *testing.T) {
	prev := 0
	for i, maxerr := range []float64{0.1, 0.2, 0.3, 0.45} {
		w := plannedFixture(t, 16)
		pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxErr: maxerr}, HalfWidth: proxyHW(0.95)}
		_, _, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
		if err != nil {
			t.Fatal(err)
		}
		if exec.AchievedHalfWidth > maxerr {
			t.Fatalf("maxerr %v: achieved %v over bound", maxerr, exec.AchievedHalfWidth)
		}
		if i > 0 && exec.Loaded > prev {
			t.Fatalf("loosening maxerr to %v raised loads %d > %d", maxerr, exec.Loaded, prev)
		}
		prev = exec.Loaded
	}
	if prev >= 16 {
		t.Fatalf("loosest bound still loaded %d/16 partitions", prev)
	}
}

func TestPlannedZeroBoundsByteIdentity(t *testing.T) {
	ref, err := plannedFixture(t, 7).MergedSampleContext(context.Background(), "orders")
	if err != nil {
		t.Fatal(err)
	}
	s, cov, exec, err := plannedFixture(t, 7).MergedSamplePlanned(
		context.Background(), "orders", nil, false, PlannedQuery[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if exec != nil {
		t.Fatalf("unbounded query engaged the planner: %+v", exec)
	}
	if len(cov.Merged) != 7 || len(cov.Pruned) != 0 {
		t.Fatalf("unbounded coverage %+v", cov)
	}
	if s.Kind != ref.Kind || s.ParentSize != ref.ParentSize || !s.Hist.Equal(ref.Hist) {
		t.Fatal("zero-bounds planned merge differs from MergedSampleContext")
	}
}

// TestPlannedCoverageAccounting is the coverage property: the reported covered
// population is exactly the summed population of the partitions the executor
// folded, and the total is the summed population of everything requested.
func TestPlannedCoverageAccounting(t *testing.T) {
	w := plannedFixture(t, 12)
	pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxErr: 0.25}, HalfWidth: proxyHW(0.95)}
	s, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.PartitionStatsSnapshot("orders")
	if err != nil {
		t.Fatal(err)
	}
	var coveredPop, totalPop int64
	for _, id := range cov.Merged {
		coveredPop += stats[id].ParentSize
	}
	for _, id := range cov.Requested {
		totalPop += stats[id].ParentSize
	}
	if exec.CoveredPop != coveredPop || s.ParentSize != coveredPop {
		t.Fatalf("covered pop %d (sample %d), want Σ merged stats %d", exec.CoveredPop, s.ParentSize, coveredPop)
	}
	if exec.TotalPop != totalPop {
		t.Fatalf("total pop %d, want Σ requested stats %d", exec.TotalPop, totalPop)
	}
	// Merged and pruned partition the requested set (nothing was skipped).
	seen := map[string]bool{}
	for _, id := range append(append([]string{}, cov.Merged...), cov.Pruned...) {
		if seen[id] {
			t.Fatalf("partition %s appears twice in merged+pruned", id)
		}
		seen[id] = true
	}
	if len(seen) != len(cov.Requested) {
		t.Fatalf("merged(%d)+pruned(%d) != requested(%d)", len(cov.Merged), len(cov.Pruned), len(cov.Requested))
	}
}

func TestPlannedMaxTimeStopsAfterFirstWave(t *testing.T) {
	ss := &slowStore{Store: storage.NewMemStore[int64](storage.Int64Codec{}), delay: 5 * time.Millisecond}
	w := mustOpen[int64](t, ss, 42)
	w.ld.workers = 2
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(256)}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%02d", p), int64(p)*1000, int64(p+1)*1000)
	}
	pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Millisecond}}
	s, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
	if err != nil {
		t.Fatal(err)
	}
	// The first wave always runs — a too-tight budget yields the smallest
	// non-empty answer, never an error — and with 5ms loads against a 1ms
	// budget nothing after it does.
	if exec.StopReason != "maxtime" {
		t.Fatalf("stop reason %q, want maxtime", exec.StopReason)
	}
	if exec.Loaded != 2 {
		t.Fatalf("loaded %d partitions, want exactly the first wave of 2", exec.Loaded)
	}
	if s == nil || s.Size() == 0 {
		t.Fatal("maxtime answer is empty")
	}
	if len(cov.Pruned) != 6 {
		t.Fatalf("pruned %d, want 6", len(cov.Pruned))
	}
	// A maxtime-only query carries no evaluator, so no interval is reported.
	if exec.AchievedHalfWidth != -1 {
		t.Fatalf("achieved half-width %v without an evaluator, want -1", exec.AchievedHalfWidth)
	}
}

func TestPlannedUnachievableMaxErrExhaustsPlan(t *testing.T) {
	w := plannedFixture(t, 8)
	pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxErr: 0.001}, HalfWidth: proxyHW(0.95)}
	_, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
	if err != nil {
		t.Fatal(err)
	}
	if exec.StopReason != "exhausted" || exec.Loaded != 8 || len(cov.Pruned) != 0 {
		t.Fatalf("unachievable bound: %+v pruned=%v, want full exhausted merge", exec, cov.Pruned)
	}
	// The answer still reports its honest (over-bound) width.
	if exec.AchievedHalfWidth <= 0.001 {
		t.Fatalf("achieved half-width %v under an unachievable bound", exec.AchievedHalfWidth)
	}
}

func TestPlannedValidation(t *testing.T) {
	w := plannedFixture(t, 2)
	// maxerr without an evaluator is a programming error, not a silent no-op.
	pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxErr: 0.2}}
	if _, _, _, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq); err == nil ||
		!strings.Contains(err.Error(), "half-width evaluator") {
		t.Fatalf("maxerr without evaluator: %v", err)
	}
	timed := PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Minute}}
	if _, _, _, err := w.MergedSamplePlanned(context.Background(), "orders",
		[]string{"p00", "p00"}, false, timed); err == nil || !strings.Contains(err.Error(), "duplicate partition") {
		t.Fatalf("duplicate partition: %v", err)
	}
	if _, _, _, err := w.MergedSamplePlanned(context.Background(), "ghost", nil, false, timed); err == nil ||
		!strings.Contains(err.Error(), "unknown data set") {
		t.Fatalf("unknown data set: %v", err)
	}
}

func TestPlannedCacheResidencyReordersPlan(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 256)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20})
	w.ld.workers = 4
	for p := 0; p < 8; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%02d", p), int64(p)*1000, int64(p+1)*1000)
	}
	// Warm only p06 and p07 into the cache.
	for _, id := range []string{"p06", "p07"} {
		if _, err := w.PartitionSampleContext(bg, "orders", id); err != nil {
			t.Fatal(err)
		}
	}
	pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxErr: 0.4}, HalfWidth: proxyHW(0.95)}
	_, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Merged) < 2 || cov.Merged[0] != "p06" || cov.Merged[1] != "p07" {
		t.Fatalf("cache-resident partitions not folded first: %v", cov.Merged)
	}
	if exec.Loaded >= 8 {
		t.Fatalf("loose bound loaded everything (%d)", exec.Loaded)
	}
}

func TestManifestStatsRoundTrip(t *testing.T) {
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	w, _, err := Open[int64](store, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(128)}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*500, int64(p+1)*500)
	}
	// Measure load latencies, then mutate the catalog so the manifest (with
	// the EWMAs) is rewritten.
	if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
		t.Fatal(err)
	}
	ingest(t, w, "orders", "p3", 1500, 2000)
	before, err := w.PartitionStatsSnapshot("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 4 {
		t.Fatalf("registry holds %d entries, want 4", len(before))
	}
	for id, st := range before {
		if st.SampleSize == 0 || st.ParentSize != 500 || st.Footprint == 0 {
			t.Fatalf("registry entry %s = %+v", id, st)
		}
	}

	w2, rep, err := Open[int64](store, 43)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("reopen not clean: %v", rep)
	}
	after, err := w2.PartitionStatsSnapshot("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("reopened registry %d entries, want %d", len(after), len(before))
	}
	for id, st := range before {
		if after[id] != st {
			t.Fatalf("entry %s changed across reopen: %+v vs %+v", id, after[id], st)
		}
	}
	// The loader EWMAs measured before the reopen rode along in the manifest.
	for _, id := range []string{"p0", "p1", "p2"} {
		if w2.ld.ewmaNS(w2.key("orders", id)) <= 0 {
			t.Fatalf("load EWMA for %s not persisted", id)
		}
	}

	// Roll-out forgets the partition's statistics, durably.
	if err := w2.RollOut("orders", "p1"); err != nil {
		t.Fatal(err)
	}
	w3, _, err := Open[int64](store, 44)
	if err != nil {
		t.Fatal(err)
	}
	final, err := w3.PartitionStatsSnapshot("orders")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := final["p1"]; ok || len(final) != 3 {
		t.Fatalf("rolled-out partition still in registry: %v", final)
	}
}

// TestManifestBackfillOldManifests simulates a manifest written before the
// statistics registry existed: the partitions plan as unknown and the first
// planned query backfills their entries on the spot.
func TestManifestBackfillOldManifests(t *testing.T) {
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	w, _, err := Open[int64](store, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(128)}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*500, int64(p+1)*500)
	}

	// Strip the registry from the stored manifest, as a pre-registry build
	// would have written it.
	m, err := loadManifest(store)
	if err != nil {
		t.Fatal(err)
	}
	for name, md := range m.Datasets {
		md.Stats = nil
		m.Datasets[name] = md
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutBlob(manifestName, data); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	w2, _, err := Open[int64](store, 43)
	if err != nil {
		t.Fatal(err)
	}
	w2.Instrument(reg)
	if snap, _ := w2.PartitionStatsSnapshot("orders"); len(snap) != 0 {
		t.Fatalf("stripped manifest still yields %d registry entries", len(snap))
	}

	pq := PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Minute}}
	_, cov, exec, err := w2.MergedSamplePlanned(context.Background(), "orders", nil, false, pq)
	if err != nil {
		t.Fatal(err)
	}
	if exec.StopReason != "exhausted" || len(cov.Merged) != 3 {
		t.Fatalf("backfill query: %+v / %+v", exec, cov)
	}
	// Unknown partitions contribute to the total only as they are measured.
	if exec.TotalPop != 1500 {
		t.Fatalf("measured total pop %d, want 1500", exec.TotalPop)
	}
	if got := reg.Snapshot().Counters["plan.stats_backfills"]; got != 3 {
		t.Fatalf("plan.stats_backfills = %d, want 3", got)
	}
	snap, err := w2.PartitionStatsSnapshot("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 {
		t.Fatalf("registry after backfill holds %d entries, want 3", len(snap))
	}
	for id, st := range snap {
		if st.ParentSize != 500 || st.SampleSize == 0 {
			t.Fatalf("backfilled entry %s = %+v", id, st)
		}
	}
}
