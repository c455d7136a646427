package warehouse

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

// TestWarehouseMetricsLifecycle checks the counters and gauges the
// warehouse keeps across roll-in / merge / roll-out, and that they reconcile
// with the returned samples.
func TestWarehouseMetricsLifecycle(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	reg := obs.NewRegistry()
	w.Instrument(reg)

	ingest(t, w, "orders", "day1", 0, 3000)
	ingest(t, w, "orders", "day2", 3000, 6000)
	ingest(t, w, "orders", "day3", 6000, 9000)

	if got := reg.Counter("warehouse.rollins").Value(); got != 3 {
		t.Errorf("rollins = %d, want 3", got)
	}
	if got := reg.Gauge("warehouse.orders.partitions").Value(); got != 3 {
		t.Errorf("partitions gauge = %d, want 3", got)
	}
	// NewSampler must have instrumented the HR samplers it handed out.
	if got := reg.Counter("core.hr.items").Value(); got != 9000 {
		t.Errorf("core.hr.items = %d, want 9000 (samplers not instrumented?)", got)
	}

	m, err := w.MergedSampleContext(bg, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 64 || m.ParentSize != 9000 {
		t.Errorf("merged sample size %d of %d, want 64 of 9000", m.Size(), m.ParentSize)
	}
	if got := reg.Counter("warehouse.merges").Value(); got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["warehouse.merge_inputs"]; h.Count != 1 || h.Max != 3 {
		t.Errorf("merge_inputs histogram = %+v, want one observation of 3", h)
	}
	if h := snap.Histograms["warehouse.merge_ns"]; h.Count != 1 {
		t.Errorf("merge_ns histogram count = %d, want 1", h.Count)
	}

	if err := w.RollOut("orders", "day2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("warehouse.rollouts").Value(); got != 1 {
		t.Errorf("rollouts = %d, want 1", got)
	}
	if got := reg.Gauge("warehouse.orders.partitions").Value(); got != 2 {
		t.Errorf("partitions gauge after roll-out = %d, want 2", got)
	}
}

// failStore wraps a Store and fails selected operations, for exercising the
// warehouse error paths.
type failStore struct {
	storage.Store[int64]
	failPut, failDelete bool
}

var errDisk = errors.New("disk on fire")

func (f *failStore) PutSample(key string, s *core.Sample[int64]) ([]byte, error) {
	if f.failPut {
		return nil, fmt.Errorf("storage: put %q: %w", key, errDisk)
	}
	return f.Store.PutSample(key, s)
}

func (f *failStore) Delete(key string) error {
	if f.failDelete {
		return fmt.Errorf("storage: delete %q: %w", key, errDisk)
	}
	return f.Store.Delete(key)
}

// TestWarehouseErrorWrapping checks that store failures surface with the
// dataset/partition coordinates wrapped in, remain errors.Is-matchable, and
// are counted.
func TestWarehouseErrorWrapping(t *testing.T) {
	fs := &failStore{Store: storage.NewMemStore[int64](storage.Int64Codec{}), failPut: true}
	w := mustOpen[int64](t, fs, 7)
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.Instrument(reg)

	smp, err := w.NewPartitionSampler("orders", "day1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 100; v++ {
		smp.Feed(v)
	}
	s, err := smp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	err = w.RollIn("orders", "day1", s)
	if err == nil {
		t.Fatal("roll-in over failing store succeeded")
	}
	if !errors.Is(err, errDisk) {
		t.Errorf("wrapped error lost the cause: %v", err)
	}
	for _, part := range []string{"orders", "day1"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q missing coordinate %q", err, part)
		}
	}
	if got := reg.Counter("warehouse.errors").Value(); got != 1 {
		t.Errorf("errors counter = %d, want 1", got)
	}
	// The failed roll-in must not have registered the partition.
	parts, err := w.Partitions("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Errorf("failed roll-in left partitions %v", parts)
	}

	// Roll-out failure path: roll in for real, then fail the delete.
	fs.failPut = false
	if err := w.RollIn("orders", "day1", s); err != nil {
		t.Fatal(err)
	}
	fs.failDelete = true
	err = w.RollOut("orders", "day1")
	if err == nil {
		t.Fatal("roll-out over failing store succeeded")
	}
	if !errors.Is(err, errDisk) || !strings.Contains(err.Error(), "roll-out orders/day1") {
		t.Errorf("roll-out error badly wrapped: %v", err)
	}
	if got := reg.Counter("warehouse.errors").Value(); got != 2 {
		t.Errorf("errors counter after the failed roll-out = %d, want 2", got)
	}
	// The partition must still be listed (delete did not happen).
	parts, _ = w.Partitions("orders")
	if len(parts) != 1 {
		t.Errorf("failed roll-out dropped partition anyway: %v", parts)
	}
}

// TestNotFoundSurvivesWrapping: the wrapped load errors must still satisfy
// storage.IsNotFound so callers can distinguish absence from corruption.
func TestNotFoundSurvivesWrapping(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	_, err := w.PartitionSampleContext(bg, "orders", "missing")
	if !storage.IsNotFound(err) {
		t.Errorf("wrapped missing-partition error not IsNotFound: %v", err)
	}
	if !strings.Contains(err.Error(), "orders/missing") {
		t.Errorf("error %q missing coordinates", err)
	}
}
