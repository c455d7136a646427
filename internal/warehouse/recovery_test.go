package warehouse

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
)

// externalSample builds a partition sample outside the warehouse so tests
// control the randomness budget: warehouses whose merge output must be
// compared byte-for-byte have to be at the same internal split count.
func externalSample(t *testing.T, nf int64, seed uint64, lo, hi int64) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(nf), randx.New(seed))
	for v := lo; v < hi; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenRequiresBlobSupport(t *testing.T) {
	// A RetryStore over a MemStore forwards blob support, but a bare Store
	// implementation without the side channel must be rejected.
	if _, _, err := Open[int64](bareStore{}, 1); err == nil {
		t.Fatal("store without blob support accepted")
	}
}

// bareStore implements only the core Store interface.
type bareStore struct{}

func (bareStore) Put(string, *core.Sample[int64]) error   { return nil }
func (bareStore) Get(string) (*core.Sample[int64], error) { return nil, &storage.NotFoundError{} }
func (bareStore) Delete(string) error                     { return nil }
func (bareStore) Keys(string) ([]string, error)           { return nil, nil }

// TestCrashRecoveryByteIdentical is the headline durability property: a
// warehouse reopened from its manifest produces byte-identical merged
// samples to the original instance, given the same seed.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 404
	w, rep, err := Open[int64](st, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh open not clean: %v", rep)
	}
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(128)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("clicks", DatasetConfig{Algorithm: AlgSB, SBRate: 0.05, Core: core.ConfigForNF(128)}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		p := string(rune('a' + i))
		if err := w.RollIn("orders", p, externalSample(t, 128, uint64(i+1), i*4000, (i+1)*4000)); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := w.MergedSampleContext(bg, "orders")
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.EncodeSample(merged, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": drop the warehouse, reopen the same store from scratch.
	w = nil
	st2, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	w2, rep2, err := Open[int64](st2, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("recovery not clean: %v", rep2)
	}
	if rep2.Datasets != 2 || rep2.Partitions != 3 {
		t.Fatalf("report = %+v", rep2)
	}

	// Catalog survived: names, configs, partition order.
	names := w2.Datasets()
	if len(names) != 2 || names[0] != "clicks" || names[1] != "orders" {
		t.Fatalf("datasets = %v", names)
	}
	got, err := w2.Config("orders")
	if err != nil || got.Algorithm != AlgHR || got.Core.FootprintBytes != cfg.Core.FootprintBytes {
		t.Fatalf("orders config = %+v, %v", got, err)
	}
	if got, _ := w2.Config("clicks"); got.Algorithm != AlgSB || got.SBRate != 0.05 {
		t.Fatalf("clicks config = %+v", got)
	}
	parts, err := w2.Partitions("orders")
	if err != nil || len(parts) != 3 || parts[0] != "a" || parts[2] != "c" {
		t.Fatalf("partitions = %v, %v", parts, err)
	}

	merged2, err := w2.MergedSampleContext(bg, "orders")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := storage.EncodeSample(merged2, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got2) {
		t.Fatal("recovered warehouse produced different merged sample bytes")
	}
}

func TestRecoverDropsDanglingAndReportsOrphans(t *testing.T) {
	st := storage.NewMemStore[int64]()
	w, _, err := Open[int64](st, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"p1", "p2", "p3"} {
		if err := w.RollIn("ds", p, externalSample(t, 64, 1, 0, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	// Sabotage behind the warehouse's back: delete p2's sample (dangling
	// manifest entry) and drop in an unclaimed sample (orphan) — exactly the
	// states a crash between Put/Delete and the manifest write leaves.
	if err := st.Delete("ds/p2"); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ds/stray", externalSample(t, 64, 2, 0, 1000)); err != nil {
		t.Fatal(err)
	}

	// The offline audit (swcli fsck) finds both and repairs nothing unasked.
	before := storedManifest(t, st)
	audit, err := FsckReconcile(st, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(audit.Dangling, []string{"ds/p2"}) || !reflect.DeepEqual(audit.Orphans, []string{"ds/stray"}) {
		t.Fatalf("offline audit = %+v", audit)
	}
	if !bytes.Equal(storedManifest(t, st), before) {
		t.Fatal("an audit without fix rewrote the manifest")
	}

	w2, rep, err := Open[int64](st, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dangling) != 1 || rep.Dangling[0] != "ds/p2" {
		t.Fatalf("dangling = %v", rep.Dangling)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != "ds/stray" {
		t.Fatalf("orphans = %v", rep.Orphans)
	}
	if rep.Clean() {
		t.Fatal("report claims clean")
	}
	parts, _ := w2.Partitions("ds")
	if len(parts) != 2 || parts[0] != "p1" || parts[1] != "p3" {
		t.Fatalf("partitions after reconcile = %v", parts)
	}
	// The repaired manifest must itself be durable: a third open is clean
	// except for the still-unclaimed orphan.
	_, rep3, err := Open[int64](st, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Dangling) != 0 {
		t.Fatalf("dangling persisted across repair: %v", rep3.Dangling)
	}
	if len(rep3.Orphans) != 1 {
		t.Fatalf("orphans = %v", rep3.Orphans)
	}

	// The audit with fix drops a dangling record, and its sidecar, itself.
	if err := st.Delete("ds/p3"); err != nil {
		t.Fatal(err)
	}
	if audit, err = FsckReconcile(st, true); err != nil || !reflect.DeepEqual(audit.Dangling, []string{"ds/p3"}) {
		t.Fatalf("offline audit with fix = %+v, %v", audit, err)
	}
	if sk := loadSidecar(st, "ds/p3"); sk != nil {
		t.Fatal("the dropped record's sidecar is still stored")
	}
	w4, rep4, err := Open[int64](st, 7)
	if err != nil || len(rep4.Dangling) != 0 {
		t.Fatalf("open after the fix: %v, %v", rep4, err)
	}
	if parts, _ := w4.Partitions("ds"); !reflect.DeepEqual(parts, []string{"p1"}) {
		t.Fatalf("partitions after the fix = %v", parts)
	}
}

func TestOpenEmptyStoreIsFreshWarehouse(t *testing.T) {
	w, rep, err := Open[int64](storage.NewMemStore[int64](), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Datasets != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(w.Datasets()) != 0 {
		t.Fatal("fresh warehouse not empty")
	}
}

func TestPartialMergeSkipsUnreadable(t *testing.T) {
	// Sticky corruption on one specific key: the partial merge must name
	// exactly that partition and merge the rest.
	inner := storage.NewMemStore[int64]()
	inj := faults.Wrap[int64](inner, faults.FailKey{
		Op: faults.OpGet, Key: "ds/p2", Err: faults.CorruptErr("ds/p2"),
	})
	reg := obs.NewRegistry()
	w := New[int64](inj, 11)
	w.Instrument(reg)
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	const per = 3000
	for i, p := range []string{"p1", "p2", "p3", "p4"} {
		if err := w.RollIn("ds", p, externalSample(t, 64, uint64(i+1), int64(i)*per, int64(i+1)*per)); err != nil {
			t.Fatal(err)
		}
	}

	// The strict merge fails loudly.
	if _, err := w.MergedSampleContext(bg, "ds"); !storage.IsCorrupt(err) {
		t.Fatalf("strict merge err = %v", err)
	}

	// The partial merge degrades: p2 skipped with reason "corrupt", union of
	// the survivors still a valid uniform sample with the right parent size.
	m, cov, err := w.MergedSamplePartialContext(bg, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Partial() || len(cov.Skipped) != 1 {
		t.Fatalf("coverage = %+v", cov)
	}
	if sk := cov.Skipped[0]; sk.ID != "p2" || sk.Reason != "corrupt" || !storage.IsCorrupt(sk.Err) {
		t.Fatalf("skipped = %+v", sk)
	}
	if len(cov.Merged) != 3 || cov.Merged[0] != "p1" || cov.Merged[2] != "p4" {
		t.Fatalf("merged = %v", cov.Merged)
	}
	if m.ParentSize != 3*per {
		t.Fatalf("parent size = %d, want %d (survivors only)", m.ParentSize, 3*per)
	}
	if got := reg.Counter("warehouse.partial_merges").Value(); got != 1 {
		t.Fatalf("partial_merges = %d", got)
	}
	if got := reg.Counter("warehouse.skipped_partitions").Value(); got != 1 {
		t.Fatalf("skipped_partitions = %d", got)
	}

	// Missing partitions degrade the same way, with reason "not found".
	if err := inner.Delete("ds/p3"); err != nil {
		t.Fatal(err)
	}
	_, cov, err = w.MergedSamplePartialContext(bg, "ds")
	if err != nil {
		t.Fatal(err)
	}
	reasons := map[string]string{}
	for _, sk := range cov.Skipped {
		reasons[sk.ID] = sk.Reason
	}
	if reasons["p2"] != "corrupt" || reasons["p3"] != "not found" {
		t.Fatalf("reasons = %v", reasons)
	}

	// When nothing is readable the partial merge errors rather than
	// fabricating an empty sample.
	if _, _, err := w.MergedSamplePartialContext(bg, "ds", "p2", "p3"); err == nil {
		t.Fatal("merge of only unreadable partitions succeeded")
	}
}

// TestTransientStormInvisibleThroughRetry is the ISSUE acceptance run: a 20%
// transient-failure schedule between the warehouse and its store must be
// fully absorbed by the RetryStore — zero user-visible errors across a
// two-dataset workload of roll-ins, merges, windows, and roll-outs.
func TestTransientStormInvisibleThroughRetry(t *testing.T) {
	inj := faults.Wrap[int64](storage.NewMemStore[int64](), faults.Rates{Seed: 1337, Transient: 0.20})
	st := storage.NewRetryStore[int64](inj, storage.RetryPolicy{
		MaxAttempts: 10,
		Sleep:       func(time.Duration) {},
	})
	w, _, err := Open[int64](st, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"orders", "clicks"} {
		if err := w.CreateDataset(ds, DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
			t.Fatalf("create %s: %v", ds, err)
		}
	}
	for i := int64(0); i < 10; i++ {
		p := "day" + string(rune('0'+i))
		for _, ds := range []string{"orders", "clicks"} {
			if err := w.RollIn(ds, p, externalSample(t, 64, uint64(i+1), i*1000, (i+1)*1000)); err != nil {
				t.Fatalf("roll-in %s/%s: %v", ds, p, err)
			}
		}
		if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
			t.Fatalf("merge at step %d: %v", i, err)
		}
	}
	if _, err := w.WindowContext(bg, "clicks", 3); err != nil {
		t.Fatalf("window: %v", err)
	}
	for _, p := range []string{"day0", "day1"} {
		if err := w.RollOut("orders", p); err != nil {
			t.Fatalf("roll-out %s: %v", p, err)
		}
	}
	if inj.Stats().TotalInjected() == 0 {
		t.Fatal("no faults injected; the storm never happened")
	}
	// And the survivors are consistent: reopen and compare the catalog.
	w2, rep, err := Open[int64](st, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-storm recovery not clean: %v", rep)
	}
	parts, _ := w2.Partitions("orders")
	if len(parts) != 8 {
		t.Fatalf("orders partitions = %v", parts)
	}
}

// TestKillMidPutLeavesNoVisibleCorruption simulates a process killed mid-Put:
// the temp file exists but was never renamed. The key must read as absent,
// Keys must not list it, and no later operation may trip over the leftover.
func TestKillMidPutLeavesNoVisibleCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn("ds", "p1", externalSample(t, 64, 1, 0, 2000)); err != nil {
		t.Fatal(err)
	}
	// The "kill": a truncated temp file in the dataset directory, as left by
	// a crash between CreateTemp and Rename.
	tmp := filepath.Join(dir, "ds", ".tmp-1234567")
	if err := os.WriteFile(tmp, []byte{0x53, 0x57}, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Get("ds/p2"); !storage.IsNotFound(err) {
		t.Fatalf("half-written key visible: %v", err)
	}
	keys, err := st.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.Contains(k, "tmp") {
			t.Fatalf("temp leakage in keys: %v", keys)
		}
	}
	w2, rep, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("recovery after kill-mid-put not clean: %v", rep)
	}
	if _, err := w2.MergedSampleContext(bg, "ds"); err != nil {
		t.Fatalf("merge after kill-mid-put: %v", err)
	}
}
