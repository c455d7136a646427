package warehouse

import (
	"fmt"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/stats"
	"samplewh/internal/storage"
)

// TestWarmCacheMergeUniformity chi-square-tests per-element inclusion counts
// of merged samples drawn entirely from the warm cache. The cache hands each
// merge clones of the same decoded partition samples, so any uniformity
// defect introduced by the read-through cache or the parallel merge executor
// (shared state, seed reuse across trials) would concentrate inclusion mass
// and reject here.
func TestWarmCacheMergeUniformity(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 400
	}
	const (
		parts   = 8
		perPart = 64
		n       = parts * perPart
	)
	reg := obs.NewRegistry()
	store := storage.NewMemStore[int64]()
	store.Instrument(reg)
	w := New[int64](store, 7)
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*perPart, int64(p+1)*perPart)
	}
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20, MergeWorkers: 4})
	if _, err := w.MergedSampleContext(bg, "orders"); err != nil { // prime the cache
		t.Fatal(err)
	}
	baseline := reg.Snapshot().Counters["storage.mem.gets"]

	counts := make([]int64, n)
	for trial := 0; trial < trials; trial++ {
		m, err := w.MergedSampleContext(bg, "orders")
		if err != nil {
			t.Fatal(err)
		}
		m.Hist.Each(func(v int64, c int64) {
			if v < 0 || v >= n {
				t.Fatalf("merged sample contains out-of-population value %d", v)
			}
			counts[v] += c
		})
	}
	if got := reg.Snapshot().Counters["storage.mem.gets"]; got != baseline {
		t.Fatalf("trials issued %d store gets; want all %d merges served from cache", got-baseline, trials)
	}
	res, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.001) {
		t.Fatalf("warm-cache merges non-uniform: %v", res)
	}
	t.Logf("warm-cache uniformity: %v", res)
}
