package warehouse

import (
	"context"
	"errors"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/storage"
)

// newCtxWarehouse builds a warehouse over a slow store (see query_test.go)
// with parts sampled partitions in dataset "ctx".
func newCtxWarehouse(t *testing.T, parts int, delay time.Duration) (*Warehouse[int64], *slowStore) {
	t.Helper()
	st := &slowStore{Store: storage.NewMemStore[int64](storage.Int64Codec{}), delay: delay}
	w := mustOpen[int64](t, st, 7)
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("ctx", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parts; i++ {
		smp, err := w.NewPartitionSampler("ctx", "p"+string(rune('a'+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < 500; v++ {
			smp.Feed(v)
		}
		s, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RollIn("ctx", "p"+string(rune('a'+i)), s); err != nil {
			t.Fatal(err)
		}
	}
	return w, st
}

func TestMergedSampleContextPreCanceled(t *testing.T) {
	w, st := newCtxWarehouse(t, 4, 0)
	g0 := st.gets.Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.MergedSampleContext(ctx, "ctx"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := st.gets.Load() - g0; got != 0 {
		t.Fatalf("pre-canceled merge issued %d store gets, want 0", got)
	}
	// Partial mode must not degrade around cancellation either.
	if _, _, err := w.MergedSamplePartialContext(ctx, "ctx"); !errors.Is(err, context.Canceled) {
		t.Fatalf("partial: want context.Canceled, got %v", err)
	}
	if _, err := w.PartitionSampleContext(ctx, "ctx", "pa"); !errors.Is(err, context.Canceled) {
		t.Fatalf("partition sample: want context.Canceled, got %v", err)
	}
	if _, err := w.WindowContext(ctx, "ctx", 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("window: want context.Canceled, got %v", err)
	}
}

func TestMergedSampleContextCancelMidLoad(t *testing.T) {
	const parts = 8
	w, st := newCtxWarehouse(t, parts, 20*time.Millisecond)
	// Sequential loads make "how many gets happened before cancel" meaningful.
	w.ld.workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	g0 := st.gets.Load()
	done := make(chan error, 1)
	go func() {
		_, err := w.MergedSampleContext(ctx, "ctx")
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let a load or two start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("merge did not observe cancellation")
	}
	if got := st.gets.Load() - g0; got >= parts {
		t.Fatalf("canceled merge still issued all %d loads", got)
	}
}

func TestMergedSampleContextDeadline(t *testing.T) {
	w, _ := newCtxWarehouse(t, 6, 15*time.Millisecond)
	w.ld.workers = 1
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := w.MergedSampleContext(ctx, "ctx"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// The background-context path must be unaffected.
	if _, err := w.MergedSampleContext(bg, "ctx"); err != nil {
		t.Fatalf("uncancelled merge failed: %v", err)
	}
}
