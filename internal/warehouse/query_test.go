package warehouse

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

// slowStore wraps a Store, counting Gets and optionally delaying them so
// concurrent loads overlap deterministically enough to exercise singleflight.
type slowStore struct {
	storage.Store[int64]
	gets  atomic.Int64
	delay time.Duration
}

func (s *slowStore) Get(key string) (*core.Sample[int64], error) {
	s.gets.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.Store.Get(key)
}

// TestWarmCacheZeroStoreGets is the acceptance criterion: once the cache is
// warm, a MergedSample performs zero store.Get calls.
func TestWarmCacheZeroStoreGets(t *testing.T) {
	reg := obs.NewRegistry()
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	store.Instrument(reg)
	w := mustOpen[int64](t, store, 42)
	w.Instrument(reg)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20})
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	const parts = 8
	for p := 0; p < parts; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*1000, int64(p+1)*1000)
	}
	if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
		t.Fatal(err)
	}
	cold := reg.Snapshot().Counters["storage.mem.gets"]
	if cold < parts {
		t.Fatalf("cold merge issued %d gets, want >= %d", cold, parts)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
			t.Fatal(err)
		}
	}
	warm := reg.Snapshot().Counters["storage.mem.gets"]
	if warm != cold {
		t.Fatalf("warm merges issued %d store gets (cold baseline %d); want zero", warm-cold, cold)
	}
	st := w.CacheStats()
	if st.Hits < 3*parts {
		t.Fatalf("cache hits %d, want >= %d", st.Hits, 3*parts)
	}
	if st.Entries != parts {
		t.Fatalf("cache entries %d, want %d", st.Entries, parts)
	}
}

// TestCacheDisabledByDefault pins the default behavior: without
// SetQueryConfig every merge re-reads the store.
func TestCacheDisabledByDefault(t *testing.T) {
	reg := obs.NewRegistry()
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	store.Instrument(reg)
	w := mustOpen[int64](t, store, 42)
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*1000, int64(p+1)*1000)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
			t.Fatal(err)
		}
	}
	if gets := reg.Snapshot().Counters["storage.mem.gets"]; gets != 8 {
		t.Fatalf("2 uncached merges of 4 partitions issued %d gets, want 8", gets)
	}
	if st := w.CacheStats(); st.Hits != 0 || st.Entries != 0 || st.Budget != 0 {
		t.Fatalf("disabled cache reports activity: %+v", st)
	}
}

// TestCacheDoesNotChangeResults merges the same data with and without the
// cache (and with parallel or sequential loads) and requires identical
// samples: the read path must be transparent to the statistics.
func TestCacheDoesNotChangeResults(t *testing.T) {
	type config struct {
		cacheBytes int64
		workers    int // 0 keeps loadWorkers
	}
	build := func(qc config) *Warehouse[int64] {
		w := mustOpen[int64](t, storage.NewMemStore[int64](storage.Int64Codec{}), 42)
		w.SetQueryConfig(QueryConfig{CacheBytes: qc.cacheBytes})
		if qc.workers > 0 {
			w.ld.workers = qc.workers
		}
		cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
		if err := w.CreateDataset("orders", cfg); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 7; p++ { // odd count exercises the tree carry
			ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*1000, int64(p+1)*1000)
		}
		return w
	}
	configs := []config{
		{},                    // no cache, default workers
		{cacheBytes: 1 << 20}, // cached
		{cacheBytes: 1 << 20, workers: 8},
		{workers: 1}, // sequential loads
	}
	var ref *core.Sample[int64]
	for i, qc := range configs {
		w := build(qc)
		// Two calls: the second is warm for cached configs.
		if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
			t.Fatal(err)
		}
		s, err := w.MergedSampleContext(bg, "orders")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = s
			continue
		}
		if s.Kind != ref.Kind || s.ParentSize != ref.ParentSize || !s.Hist.Equal(ref.Hist) {
			t.Fatalf("config %+v changed the merged sample", qc)
		}
	}
}

// TestSingleflightDedup issues many concurrent merges over the same
// partitions against a slow store and checks each partition was fetched far
// fewer times than requested — concurrent loads coalesce.
func TestSingleflightDedup(t *testing.T) {
	ss := &slowStore{Store: storage.NewMemStore[int64](storage.Int64Codec{}), delay: 2 * time.Millisecond}
	w := mustOpen[int64](t, ss, 42)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20})
	w.ld.workers = 8
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	const parts = 4
	for p := 0; p < parts; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*1000, int64(p+1)*1000)
	}
	ss.gets.Store(0)

	const callers = 16
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Without dedup+cache this would be callers*parts = 64 fetches. With the
	// read-through cache each partition is fetched once (modulo benign races
	// between the first wave of callers).
	if got := ss.gets.Load(); got > callers*parts/2 {
		t.Fatalf("%d store gets for %d concurrent merges of %d partitions; dedup ineffective", got, callers, parts)
	}
	// A fully-overlapped run serves every caller from the four in-flight
	// fetches (zero cache hits); a follow-up merge must be all cache.
	before := ss.gets.Load()
	if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
		t.Fatal(err)
	}
	if ss.gets.Load() != before {
		t.Fatal("warm follow-up merge hit the store")
	}
	if st := w.CacheStats(); st.Hits < parts {
		t.Fatalf("warm follow-up produced %d hits, want >= %d", st.Hits, parts)
	}
}

// TestStaleCacheNeverServedAfterRollCycle is the targeted invalidation test:
// partition p is warmed into the cache, rolled out, and re-rolled-in with
// different content; a warm merge must see only the new content.
func TestStaleCacheNeverServedAfterRollCycle(t *testing.T) {
	w := mustOpen[int64](t, storage.NewMemStore[int64](storage.Int64Codec{}), 42)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20})
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	ingest(t, w, "orders", "p0", 0, 1000)
	ingest(t, w, "orders", "p1", 1000, 2000) // old content: values in [1000, 2000)
	if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
		t.Fatal(err) // warms the cache with old p1
	}
	if err := w.RollOut("orders", "p1"); err != nil {
		t.Fatal(err)
	}
	ingest(t, w, "orders", "p1", 50_000, 51_000) // new content: [50000, 51000)
	for i := 0; i < 5; i++ {
		s, err := w.MergedSampleContext(bg, "orders")
		if err != nil {
			t.Fatal(err)
		}
		s.Hist.Each(func(v int64, c int64) {
			if v >= 1000 && v < 2000 {
				t.Fatalf("merged sample contains %d from the rolled-out incarnation of p1", v)
			}
		})
	}
}

// TestConcurrentRollCycleUnderRace hammers RollIn/RollOut/MergedSamplePartial
// concurrently (the -race run is the point) and asserts the cache never
// serves a rolled-out partition's values after churn settles.
func TestConcurrentRollCycleUnderRace(t *testing.T) {
	w := mustOpen[int64](t, storage.NewMemStore[int64](storage.Int64Codec{}), 42)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20})
	w.ld.workers = 4
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	const stable = 4
	for p := 0; p < stable; p++ {
		ingest(t, w, "orders", fmt.Sprintf("s%d", p), int64(p)*1000, int64(p+1)*1000)
	}
	// Churner: repeatedly roll the volatile partition out and back in with a
	// generation-tagged value range.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		gen := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			lo := 100_000 + gen*1000
			smp, err := w.NewPartitionSampler("orders", "hot", 1000)
			if err != nil {
				t.Error(err)
				return
			}
			for v := lo; v < lo+1000; v++ {
				smp.Feed(v)
			}
			s, err := smp.Finalize()
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.RollIn("orders", "hot", s); err != nil {
				t.Error(err)
				return
			}
			if err := w.RollOut("orders", "hot"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for i := 0; i < 50; i++ {
				s, _, err := w.MergedSamplePartialContext(bg, "orders")
				if err != nil {
					t.Error(err)
					return
				}
				if s == nil {
					t.Error("nil sample without error")
					return
				}
			}
		}()
	}
	readWG.Wait()
	close(stop)
	churnWG.Wait()

	// Churn settled with "hot" rolled out. Warm merges must contain only the
	// stable partitions' values.
	for i := 0; i < 3; i++ {
		s, err := w.MergedSampleContext(bg, "orders")
		if err != nil {
			t.Fatal(err)
		}
		s.Hist.Each(func(v int64, c int64) {
			if v >= 100_000 {
				t.Fatalf("value %d from rolled-out partition served after churn", v)
			}
		})
	}
	if _, err := w.PartitionSampleContext(bg, "orders", "hot"); err == nil {
		t.Fatal("rolled-out partition still readable")
	}
}

// TestMergedSamplePartialSkipsWithLoader re-pins the degraded-merge semantics
// on the concurrent loader: deleting a sample behind the warehouse's back
// produces a skip, not a failure.
func TestMergedSamplePartialSkipsWithLoader(t *testing.T) {
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	w := mustOpen[int64](t, store, 42)
	w.ld.workers = 8
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 6; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), int64(p)*1000, int64(p+1)*1000)
	}
	if err := store.Delete("orders/p2"); err != nil {
		t.Fatal(err)
	}
	s, cov, err := w.MergedSamplePartialContext(bg, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Partial() || len(cov.Skipped) != 1 || cov.Skipped[0].ID != "p2" {
		t.Fatalf("coverage %+v, want exactly p2 skipped", cov)
	}
	if cov.Skipped[0].Reason != "not found" {
		t.Fatalf("skip reason %q", cov.Skipped[0].Reason)
	}
	if len(cov.Merged) != 5 || s == nil {
		t.Fatalf("merged %v", cov.Merged)
	}
	// Full-strict merge still fails.
	if _, err := w.MergedSampleContext(bg, "orders"); err == nil {
		t.Fatal("strict merge succeeded with a missing partition")
	}
}
