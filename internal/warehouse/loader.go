package warehouse

import (
	"cmp"
	"context"
	"runtime"
	"sync"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/samplecache"
	"samplewh/internal/storage"
)

// QueryConfig tunes the warehouse read path (see DESIGN.md §9).
type QueryConfig struct {
	// CacheBytes bounds the decoded-sample cache by total sample footprint.
	// 0 (the default) disables caching: every merge re-reads the store, the
	// pre-cache behavior.
	CacheBytes int64
}

// loadWorkers bounds the concurrent store.Get calls of one merge: partition
// loads are I/O-bound, so 4×GOMAXPROCS. One HB or HR merge (core.MergeK)
// selects from or thins its inputs on GOMAXPROCS goroutines; the merged
// result is byte-identical for any count.
func loadWorkers() int { return 4 * runtime.GOMAXPROCS(0) }

// loadObs bundles the loader's metric handles (nil-safe zero value).
//
// Metric names (see README.md §Observability):
//
//	warehouse.partition_loads           store fetches issued by the read path (counter)
//	warehouse.load_dedup                loads coalesced onto an in-flight fetch (counter)
//	warehouse.load_ns                   store fetch latency (histogram)
//	warehouse.partition_load_ewma_ns    per-partition latency EWMA after each fetch (histogram)
type loadObs struct {
	partitionLoads *obs.Counter
	loadDedup      *obs.Counter
	loadNS         *obs.Histogram
	loadEWMA       *obs.Histogram
}

func newLoadObs(r *obs.Registry) loadObs {
	return loadObs{
		partitionLoads: r.Counter("warehouse.partition_loads"),
		loadDedup:      r.Counter("warehouse.load_dedup"),
		loadNS:         r.Histogram("warehouse.load_ns"),
		loadEWMA:       r.Histogram("warehouse.partition_load_ewma_ns"),
	}
}

// loader is the read-path fetch layer: a bounded worker pool over store.Get
// with singleflight deduplication and a read-through sample cache.
//
// Concurrent loads of the same key coalesce onto one store fetch; with the
// cache enabled the decoded sample is retained (the cache owns it). Every
// caller receives that one decoded sample itself — shared with the cache and
// with coalesced callers, and therefore read-only: every merge only reads its
// inputs, and whoever needs to mutate or keep a sample clones it
// (PartitionSampleContext). Invalidation is
// generation-guarded: bumping the generation before dropping a cache entry
// guarantees that an in-flight fetch started before the invalidation can
// never re-insert the stale sample after it.
type loader[V cmp.Ordered] struct {
	store storage.Store[V]

	// workers bounds one load's concurrent store fetches: loadWorkers, set
	// once (tests lower it before their first query).
	workers int

	mu      sync.Mutex
	gen     uint64 // invalidation epoch; bumped by every invalidation
	flights map[string]*flight[V]
	cache   *samplecache.Cache[V]
	// ewma holds the per-key load-latency EWMA (α = 1/8) the planner uses to
	// predict load costs. It describes the store, not the cached content, so
	// invalidation and cache swaps leave it alone; a roll-out deletes its key.
	ewma map[string]int64

	o loadObs
}

// flight is one in-progress store fetch other loads can join.
type flight[V cmp.Ordered] struct {
	done chan struct{}
	gen  uint64 // loader generation when the fetch began
	s    *core.Sample[V]
	err  error
}

func newLoader[V cmp.Ordered](store storage.Store[V]) *loader[V] {
	return &loader[V]{
		store:   store,
		flights: make(map[string]*flight[V]),
		workers: loadWorkers(),
		ewma:    make(map[string]int64),
	}
}

// noteLoad folds one measured store fetch into the key's latency EWMA and
// mirrors the new value into the warehouse.partition_load_ewma_ns histogram.
func (l *loader[V]) noteLoad(key string, ns int64) {
	if ns <= 0 {
		ns = 1 // a measured load is never confused with "unmeasured" (0)
	}
	l.mu.Lock()
	prev := l.ewma[key]
	if prev == 0 {
		prev = ns
	} else {
		prev += (ns - prev) / 8
	}
	l.ewma[key] = prev
	l.mu.Unlock()
	l.o.loadEWMA.Observe(prev)
}

// ewmaNS returns the key's load-latency EWMA (0 = never measured).
func (l *loader[V]) ewmaNS(key string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ewma[key]
}

// seedEWMA primes a key's EWMA from a persisted manifest value.
func (l *loader[V]) seedEWMA(key string, ns int64) {
	if ns <= 0 {
		return
	}
	l.mu.Lock()
	if _, ok := l.ewma[key]; !ok {
		l.ewma[key] = ns
	}
	l.mu.Unlock()
}

// dropEWMA forgets a rolled-out key's EWMA.
func (l *loader[V]) dropEWMA(key string) {
	l.mu.Lock()
	delete(l.ewma, key)
	l.mu.Unlock()
}

// resident reports whether key's decoded sample is cache-resident, without
// touching LRU order or the hit/miss counters (the planner's probe).
func (l *loader[V]) resident(key string) bool {
	l.mu.Lock()
	cache := l.cache
	l.mu.Unlock()
	return cache.Contains(key)
}

// instrument routes the loader's metrics through reg (nil reverts to no-op).
func (l *loader[V]) instrument(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.o = newLoadObs(reg)
	l.cache.Instrument(reg)
}

// configure applies a QueryConfig: swaps in a fresh cache sized to the new
// budget. reg instruments the new cache.
func (l *loader[V]) configure(cfg QueryConfig, reg *obs.Registry) {
	cache := samplecache.New[V](cfg.CacheBytes)
	cache.Instrument(reg)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen++ // orphan in-flight fetches aimed at the old cache
	l.cache = cache
}

// stats returns the current cache counters (all zero with caching disabled).
func (l *loader[V]) stats() samplecache.Stats {
	l.mu.Lock()
	cache := l.cache
	l.mu.Unlock()
	return cache.Stats()
}

// invalidate drops key from the cache and orphans any in-flight fetch of it.
// The generation bump happens before the cache delete: a fetch that completes
// after this call observes a changed generation and does not re-insert.
func (l *loader[V]) invalidate(key string) {
	l.mu.Lock()
	l.gen++
	cache := l.cache
	l.mu.Unlock()
	cache.Invalidate(key)
}

// invalidatePrefix is invalidate for every key under prefix (dataset-level).
func (l *loader[V]) invalidatePrefix(prefix string) {
	l.mu.Lock()
	l.gen++
	cache := l.cache
	l.mu.Unlock()
	cache.InvalidatePrefix(prefix)
}

// reset drops the whole cache (recovery, reconfiguration).
func (l *loader[V]) reset() {
	l.mu.Lock()
	l.gen++
	cache := l.cache
	l.mu.Unlock()
	cache.Reset()
}

// loadResult pairs one requested key's sample with its fetch error.
type loadResult[V cmp.Ordered] struct {
	s   *core.Sample[V]
	err error
}

// load fetches every key, preserving request order in the results (merge
// determinism depends on it). Keys resident in the cache resolve in the calling
// goroutine — a hit is a pointer copy, cheaper than the goroutine that would
// carry it; the rest run on a worker pool bounded by loadWorkers, and
// duplicate concurrent fetches coalesce. Cancellation is
// honored between keys: once ctx is done, keys not yet started resolve to
// ctx.Err() instead of reaching the store. The samples are shared (see loader).
func (l *loader[V]) load(ctx context.Context, keys []string) []loadResult[V] {
	res := make([]loadResult[V], len(keys))
	l.mu.Lock()
	cache := l.cache
	l.mu.Unlock()
	one := func(i int) {
		if err := ctx.Err(); err != nil {
			res[i].err = err
			return
		}
		res[i].s, res[i].err = l.loadOne(ctx, keys[i])
	}
	var misses []int
	for i, k := range keys {
		// Contains counts nothing; loadOne's own lookup records the hit — or,
		// if the entry left in between, the miss, and fetches here.
		if cache.Contains(k) {
			one(i)
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) <= 1 || l.workers <= 1 {
		for _, i := range misses {
			one(i)
		}
		return res
	}
	sem := make(chan struct{}, min(l.workers, len(misses)))
	var wg sync.WaitGroup
	for _, i := range misses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			one(i)
		}()
	}
	wg.Wait()
	return res
}

// loadOne returns the decoded sample for key, from cache when possible. The
// returned sample is shared and must not be mutated (see loader).
// A store fetch, once started, runs to completion (the Store interface is
// not cancelable, and an abandoned result can still populate the cache for
// the next caller); ctx is honored before starting one and while waiting on
// another goroutine's in-flight fetch.
//
// When ctx carries an obs span, each call records a load_partition child span
// labeled with the key and how it was satisfied (cache=hit|coalesced|miss),
// the sample footprint in bytes and, on a hit, the cache entry's age.
func (l *loader[V]) loadOne(ctx context.Context, key string) (s *core.Sample[V], err error) {
	sp := obs.SpanFromContext(ctx).Start("load_partition")
	sp.SetLabel("partition", key)
	defer func() {
		if err != nil {
			sp.SetError(err)
		} else if s != nil {
			sp.SetValue("bytes", s.Footprint())
		}
		sp.End()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l.mu.Lock()
		if s, age, ok := l.cache.GetWithAge(key); ok {
			l.mu.Unlock()
			sp.SetLabel("cache", "hit")
			sp.SetValue("cache_age_ns", int64(age))
			return s, nil
		}
		if f, ok := l.flights[key]; ok {
			if f.gen != l.gen {
				// The key was invalidated after this fetch began; its result
				// must not be shared. Wait it out and retry fresh.
				l.mu.Unlock()
				select {
				case <-f.done:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				continue
			}
			l.mu.Unlock()
			l.o.loadDedup.Inc()
			sp.SetLabel("cache", "coalesced")
			select {
			case <-f.done:
			case <-ctx.Done():
				// Abandon the join; the leader still completes the fetch and
				// (with a cache) retains the result for future callers.
				return nil, ctx.Err()
			}
			if f.err != nil {
				return nil, f.err
			}
			return f.s, nil
		}
		f := &flight[V]{done: make(chan struct{}), gen: l.gen}
		l.flights[key] = f
		l.mu.Unlock()
		sp.SetLabel("cache", "miss")

		// The clock is read directly, not through the obs timer: the planner's
		// cost model must keep learning on uninstrumented warehouses too.
		t0 := time.Now()
		f.s, f.err = l.store.Get(key)
		ns := time.Since(t0).Nanoseconds()
		l.o.loadNS.Observe(ns)
		l.o.partitionLoads.Inc()
		if f.err == nil {
			// Feed the planner's cost model; failed fetches are excluded so a
			// fast error path cannot masquerade as a fast load.
			l.noteLoad(key, ns)
		}

		l.mu.Lock()
		delete(l.flights, key)
		if f.err == nil && f.gen == l.gen {
			// The cache takes ownership of the decoded sample.
			l.cache.Put(key, f.s)
		}
		cache := l.cache
		l.mu.Unlock()
		close(f.done)

		if f.err != nil {
			// Defensive: a failed fetch (e.g. quarantined corruption) must
			// never leave an entry behind.
			cache.Invalidate(key)
			return nil, f.err
		}
		return f.s, nil
	}
}
