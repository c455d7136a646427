package warehouse

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
	"samplewh/internal/workload"
)

func TestRollInBuildsSketch(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "day1", 0, 5000)
	sk, ok, err := partitionSketch(w, "orders", "day1")
	if err != nil || !ok {
		t.Fatalf("sketch: ok=%v err=%v", ok, err)
	}
	if err := sk.Validate(); err != nil {
		t.Fatalf("invalid sidecar: %v", err)
	}
	if sk.Count != 5000 {
		t.Fatalf("Count = %d, want 5000", sk.Count)
	}
	if sk.Source != sketch.SourceSample {
		t.Fatalf("Source = %q", sk.Source)
	}
	if sk.Min < 0 || sk.Max >= 5000 {
		t.Fatalf("bounds [%d, %d] outside ingested range", sk.Min, sk.Max)
	}
}

func TestRollInSketchedValidation(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	s := externalSample(t, 64, 9, 100, 600)

	// A stream-built sidecar with the right population is accepted and kept
	// verbatim (exact bounds, not sample bounds).
	b := sketch.NewBuilder()
	for v := int64(100); v < 600; v++ {
		b.Add(v)
	}
	good := b.Summary()
	if err := w.RollInSketched("orders", "p1", s, good); err != nil {
		t.Fatal(err)
	}
	got, ok, err := partitionSketch(w, "orders", "p1")
	if err != nil || !ok {
		t.Fatalf("sketch: ok=%v err=%v", ok, err)
	}
	if got.Source != sketch.SourceStream || got.Min != 100 || got.Max != 599 {
		t.Fatalf("stream sidecar mangled: %+v", got)
	}

	// Population mismatch and corrupt summaries are rejected before any state
	// changes.
	bad := good.Clone()
	bad.Count = 7
	if err := w.RollInSketched("orders", "p2", externalSample(t, 64, 10, 0, 500), bad); err == nil {
		t.Fatal("population-mismatched sidecar accepted")
	}
	corrupt := good.Clone()
	corrupt.Min = corrupt.Max + 1
	if err := w.RollInSketched("orders", "p2", externalSample(t, 64, 10, 100, 600), corrupt); err == nil {
		t.Fatal("corrupt sidecar accepted")
	}
	if parts, _ := w.Partitions("orders"); len(parts) != 1 {
		t.Fatalf("failed roll-ins left partitions behind: %v", parts)
	}
}

func TestRollOutDropsSketch(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "day1", 0, 1000)
	if err := w.RollOut("orders", "day1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := partitionSketch(w, "orders", "day1"); err != nil || ok {
		t.Fatalf("rolled-out partition still has a sidecar (ok=%v err=%v)", ok, err)
	}
}

func TestSketchManifestRoundTrip(t *testing.T) {
	st := storage.NewMemStore[int64]()
	w, _, err := Open[int64](st, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn("orders", "a", externalSample(t, 64, 1, 0, 3000)); err != nil {
		t.Fatal(err)
	}
	want, ok, err := partitionSketch(w, "orders", "a")
	if err != nil || !ok {
		t.Fatalf("sketch before reopen: ok=%v err=%v", ok, err)
	}

	w2, _, err := Open[int64](st, 11)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := partitionSketch(w2, "orders", "a")
	if err != nil || !ok {
		t.Fatalf("sketch after reopen: ok=%v err=%v", ok, err)
	}
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
		got.Sum != want.Sum || len(got.KMV) != len(want.KMV) {
		t.Fatalf("sidecar changed across reopen:\n before %+v\n after  %+v", want, got)
	}
}

func TestDatasetSketchUnionAndBackfill(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 4096)
	// Small partitions (below NF) are stored exhaustively, so the union's KMV
	// is exact and comparable to ground truth.
	ingest(t, w, "orders", "p1", 0, 100)
	ingest(t, w, "orders", "p2", 50, 150) // overlaps p1: union has 150 distinct
	ingest(t, w, "orders", "p3", 200, 250)

	// Simulate a pre-sketch manifest for p2.
	w.mu.Lock()
	w.sets["orders"].byID["p2"].sketch = nil
	w.mu.Unlock()

	union, err := w.DatasetSketch(context.Background(), "orders")
	if err != nil {
		t.Fatal(err)
	}
	if union.Count != 250 {
		t.Fatalf("union Count = %d, want 250", union.Count)
	}
	if d := union.DistinctEstimate(); d != 200 {
		t.Fatalf("union distinct = %v, want 200 (KMV unsaturated over 200 values)", d)
	}
	// The missing sidecar was rebuilt from the stored sample as a side effect.
	if _, ok, err := partitionSketch(w, "orders", "p2"); err != nil || !ok {
		t.Fatalf("backfill did not restore p2's sidecar (ok=%v err=%v)", ok, err)
	}

	// Where the samples are not exhaustive: a skewed data set whose merged
	// sample has lost most rare values, so the sample's GEE estimate is biased
	// low, while the stream-built sidecars hashed every row — their union must
	// land closer to the true distinct count.
	if err := w.CreateDataset("zipf", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(256)}); err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Dist: workload.Zipfian, N: 16 * 2000, Seed: 1, ZipfValues: 200_000, ZipfSkew: 1.1}
	truth := make(map[int64]struct{})
	for i, g := range workload.Partitions(spec, 16) {
		smp, err := w.NewPartitionSampler("zipf", fmt.Sprintf("p%02d", i), g.Len())
		if err != nil {
			t.Fatal(err)
		}
		b := sketch.NewBuilder()
		for v, ok := g.Next(); ok; v, ok = g.Next() {
			smp.Feed(v)
			b.Add(v)
			truth[v] = struct{}{}
		}
		s, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RollInSketched("zipf", fmt.Sprintf("p%02d", i), s, b.Summary()); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := w.MergedSampleContext(bg, "zipf")
	if err != nil {
		t.Fatal(err)
	}
	if union, err = w.DatasetSketch(context.Background(), "zipf"); err != nil {
		t.Fatal(err)
	}
	n := float64(len(truth))
	kmv, gee := union.DistinctEstimate(), estimate.New(merged).DistinctGEE()
	if math.Abs(kmv-n) >= math.Abs(gee-n) {
		t.Fatalf("kmv union %.0f no closer to the true %d distinct values than sample GEE %.0f", kmv, len(truth), gee)
	}
}

// rangeEstimates answers a count:lo..hi query through the stratified path and
// returns the (count, fraction) estimate pair and the partitions the sidecars
// proved out of range.
func rangeEstimates(t *testing.T, w *Warehouse[int64], lo, hi int64, prune bool) (cnt, frac estimate.Estimate, pruned []string) {
	t.Helper()
	strata, zeros, cov, err := w.StratifiedRange(context.Background(), "orders", nil, SketchRange{Lo: lo, Hi: hi}, prune, false)
	if err != nil {
		t.Fatal(err)
	}
	if strata == nil {
		t.Fatal("all partitions pruned in a test that expects survivors")
	}
	est, err := estimate.NewStratifiedWithConfidence(strata, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(v int64) bool { return v >= lo && v <= hi }
	if cnt, err = est.CountPruned(pred, zeros); err != nil {
		t.Fatal(err)
	}
	if frac, err = est.FractionPruned(pred, zeros); err != nil {
		t.Fatal(err)
	}
	return cnt, frac, cov.SketchPruned
}

// TestStratifiedRangeByteIdentity is the pruning contract: whenever the
// pruned partitions provably lie outside the query range, the pruning-enabled
// estimate is byte-identical to the pruning-disabled one — same value, same
// interval, same exactness — across disjoint partition layouts and a ladder
// of query ranges. The first four ranges narrow from the whole domain to one
// partition's slice, and along them the pruned count never falls. With pruning
// off nothing is pruned.
func TestStratifiedRangeByteIdentity(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 128)
	// Eight partitions holding disjoint contiguous value ranges.
	const parts, span = 8, 10000
	for i := int64(0); i < parts; i++ {
		p := string(rune('a' + i))
		if err := w.RollIn("orders", p, externalSample(t, 128, uint64(i+1), i*span, (i+1)*span)); err != nil {
			t.Fatal(err)
		}
	}
	const ladder = 4
	ranges := []SketchRange{
		{Lo: 0, Hi: parts*span - 1},           // everything (nothing prunable)
		{Lo: 0, Hi: parts*span/2 - 1},         // half the domain
		{Lo: 0, Hi: parts*span/4 - 1},         // a quarter
		{Lo: 0, Hi: span - 1},                 // first partition only
		{Lo: span / 2, Hi: span + span/2},     // straddles a boundary
		{Lo: 3 * span, Hi: 5*span - 1},        // middle pair
		{Lo: 7*span + 123, Hi: 7*span + 4000}, // slice of the last partition
	}
	prev := 0
	for i, r := range ranges {
		cntOn, fracOn, pruned := rangeEstimates(t, w, r.Lo, r.Hi, true)
		cntOff, fracOff, prunedOff := rangeEstimates(t, w, r.Lo, r.Hi, false)
		if cntOn != cntOff {
			t.Errorf("range [%d,%d]: count diverged with pruning:\n on  %+v\n off %+v", r.Lo, r.Hi, cntOn, cntOff)
		}
		if fracOn != fracOff {
			t.Errorf("range [%d,%d]: fraction diverged with pruning:\n on  %+v\n off %+v", r.Lo, r.Hi, fracOn, fracOff)
		}
		if len(prunedOff) != 0 {
			t.Errorf("range [%d,%d]: pruning disabled but %v pruned", r.Lo, r.Hi, prunedOff)
		}
		if i >= ladder {
			continue
		}
		if len(pruned) < prev {
			t.Errorf("range [%d,%d]: pruned %d partitions, the wider range before it %d", r.Lo, r.Hi, len(pruned), prev)
		}
		prev = len(pruned)
	}

	// And pruning actually prunes: the narrowest rung, a single-partition
	// query, must skip all seven provably-out-of-range partitions.
	_, _, cov, err := w.StratifiedRange(context.Background(), "orders", nil, SketchRange{Lo: 0, Hi: span - 1}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.SketchPruned) != parts-1 {
		t.Fatalf("SketchPruned = %v, want %d partitions", cov.SketchPruned, parts-1)
	}
	if len(cov.Merged) != 1 {
		t.Fatalf("Merged = %v, want exactly the matching partition", cov.Merged)
	}
}

func TestStratifiedRangeAllPruned(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "p1", 0, 1000)
	ingest(t, w, "orders", "p2", 1000, 2000)
	strata, zeros, cov, err := w.StratifiedRange(context.Background(), "orders", nil, SketchRange{Lo: 50000, Hi: 60000}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if strata != nil {
		t.Fatal("expected every partition pruned")
	}
	if len(zeros) != 2 || len(cov.SketchPruned) != 2 {
		t.Fatalf("zeros=%v pruned=%v", zeros, cov.SketchPruned)
	}
	var pop int64
	for _, z := range zeros {
		pop += z.Pop
	}
	if pop != 2000 {
		t.Fatalf("proven-zero population = %d, want 2000", pop)
	}
}

func TestPlannedQuerySketchPruning(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 128)
	for i := int64(0); i < 4; i++ {
		p := string(rune('a' + i))
		if err := w.RollIn("orders", p, externalSample(t, 128, uint64(i+1), i*1000, (i+1)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	q := PlannedQuery[int64]{
		Bounds:      plan.Bounds{MaxErr: 0.5},
		Confidence:  0.95,
		HalfWidth:   proxyHW(0.95),
		SketchRange: &SketchRange{Lo: 0, Hi: 999},
	}
	s, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, q)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || exec == nil {
		t.Fatal("no sample or execution report")
	}
	if len(cov.SketchPruned) != 3 {
		t.Fatalf("SketchPruned = %v, want the 3 out-of-range partitions", cov.SketchPruned)
	}
	if exec.ProvenZeroPop != 3000 {
		t.Fatalf("ProvenZeroPop = %d, want 3000", exec.ProvenZeroPop)
	}
	if exec.TotalPop != 4000 {
		t.Fatalf("TotalPop = %d, want 4000 (pruned populations still counted)", exec.TotalPop)
	}
}

func TestPlannedQueryAllPrunedFallback(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	reg := obs.NewRegistry()
	w.Instrument(reg)
	ingest(t, w, "orders", "p1", 0, 1000)
	ingest(t, w, "orders", "p2", 1000, 2000)
	q := PlannedQuery[int64]{
		Bounds:      plan.Bounds{MaxErr: 0.5},
		Confidence:  0.95,
		HalfWidth:   proxyHW(0.95),
		SketchRange: &SketchRange{Lo: 90000, Hi: 99999},
	}
	// Every partition is provably out of range; the executor must still load
	// one so the caller gets a sample to estimate from.
	s, cov, exec, err := w.MergedSamplePlanned(context.Background(), "orders", nil, false, q)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("no sample returned")
	}
	if len(cov.SketchPruned) != 1 {
		t.Fatalf("SketchPruned = %v, want one partition un-pruned for the fallback", cov.SketchPruned)
	}
	if exec.ProvenZeroPop != 1000 {
		t.Fatalf("ProvenZeroPop = %d", exec.ProvenZeroPop)
	}
	// The un-pruned partition was loaded, so it must not count as pruned.
	if got := reg.Counter("sketch.pruned_partitions").Value(); got != int64(len(cov.SketchPruned)) {
		t.Fatalf("sketch.pruned_partitions = %d, want len(SketchPruned) = %d", got, len(cov.SketchPruned))
	}
}

func TestFsckSketches(t *testing.T) {
	st := storage.NewMemStore[int64]()
	w, _, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ok", "gone", "old", "bad"} {
		if err := w.RollIn("ds", p, externalSample(t, 64, 3, 0, 2000)); err != nil {
			t.Fatal(err)
		}
	}

	// Damage the stored sidecars directly: fsck audits storage, not memory.
	if err := st.DeleteBlob("ds/gone"); err != nil {
		t.Fatal(err)
	}
	for key, damage := range map[string]func(*sketch.Summary){
		"ds/old": func(sk *sketch.Summary) { sk.Version = sketch.Version + 1 },
		"ds/bad": func(sk *sketch.Summary) { sk.Min = sk.Max + 1 },
	} {
		sk := loadSidecar(st, key)
		damage(sk)
		data, err := json.Marshal(sk)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutBlob(key, data); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := FsckSketches(st, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 4 || rep.Problems() != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "ds/gone" {
		t.Fatalf("Missing = %v", rep.Missing)
	}
	if len(rep.Stale) != 1 || rep.Stale[0] != "ds/old" {
		t.Fatalf("Stale = %v", rep.Stale)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != "ds/bad" {
		t.Fatalf("Corrupt = %v", rep.Corrupt)
	}
	if len(rep.Fixed) != 0 {
		t.Fatalf("dry run fixed entries: %v", rep.Fixed)
	}

	rep, err = FsckSketches(st, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fixed) != 3 {
		t.Fatalf("Fixed = %v, want all 3 defects rebuilt", rep.Fixed)
	}
	rep, err = FsckSketches(st, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problems() != 0 {
		t.Fatalf("defects survived -fix: %+v", rep)
	}

	// A repaired manifest reopens with usable sidecars everywhere.
	w2, _, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ok", "gone", "old", "bad"} {
		if _, ok, err := partitionSketch(w2, "ds", p); err != nil || !ok {
			t.Fatalf("partition %s has no sidecar after repair (ok=%v err=%v)", p, ok, err)
		}
	}
}
