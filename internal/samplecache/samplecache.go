// Package samplecache provides a footprint-bounded LRU cache of decoded
// partition samples for the warehouse read path.
//
// The cache is bounded by the total byte footprint of the cached samples
// (Sample.Footprint), not by entry count: partition samples vary from a few
// hundred bytes (exhaustive samples of tiny partitions) to the full nF bound,
// so an entry-count bound would make the memory ceiling depend on the
// workload. Entries are evicted least-recently-used until the budget holds.
//
// Cached samples are owned by the cache and treated as immutable: Get returns
// the cached pointer and callers must Clone before any mutating use (the
// pairwise merges consume their inputs). The warehouse read path hands the
// shared pointer to its query and clones only where a merge would consume it
// or a caller could keep it (DESIGN.md §9).
//
// All methods are safe for concurrent use, and every method on a nil *Cache
// is a no-op returning zero values, mirroring the nil-safety convention of
// internal/obs — a warehouse with caching disabled carries a nil cache and
// pays only a nil check.
package samplecache

import (
	"cmp"
	"container/list"
	"strings"
	"sync"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
)

// Cache is a footprint-bounded LRU of decoded samples keyed by the
// warehouse's "dataset/partition" key.
type Cache[V cmp.Ordered] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	// Counters are kept locally so Stats works without instrumentation; the
	// obs bundle mirrors them into the shared registry when routed.
	hits          int64
	misses        int64
	evictions     int64
	invalidations int64

	o cacheObs
}

type entry[V cmp.Ordered] struct {
	key      string
	s        *core.Sample[V]
	size     int64
	inserted time.Time
}

// New returns a cache holding at most budget bytes of sample footprint.
// A budget <= 0 returns nil: the disabled cache, on which every method is a
// no-op.
func New[V cmp.Ordered](budget int64) *Cache[V] {
	if budget <= 0 {
		return nil
	}
	return &Cache[V]{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Instrument routes the cache's metrics through reg. Safe on nil.
func (c *Cache[V]) Instrument(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.o = newCacheObs(reg)
	c.o.bytes.Set(c.bytes)
	c.o.entries.Set(int64(c.ll.Len()))
}

// Get returns the cached sample for key. The returned sample is shared and
// must not be mutated; Clone before merging. Safe on nil (always a miss).
func (c *Cache[V]) Get(key string) (*core.Sample[V], bool) {
	s, _, ok := c.GetWithAge(key)
	return s, ok
}

// GetWithAge is Get also reporting how long the entry has been cached (time
// since Put), so read-path tracing can label a hit with the staleness of the
// sample it served. Safe on nil (always a miss).
func (c *Cache[V]) GetWithAge(key string) (*core.Sample[V], time.Duration, bool) {
	if c == nil {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.o.misses.Inc()
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	c.o.hits.Inc()
	e := el.Value.(*entry[V])
	return e.s, time.Since(e.inserted), true
}

// Contains reports cache residency without touching the LRU order or the
// hit/miss counters — the planner's probe (DESIGN.md §14): asking "would this
// partition be free to load?" must not promote the entry or skew the ratios
// that describe actual read traffic. Safe on nil (never resident).
func (c *Cache[V]) Contains(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put inserts s under key, taking ownership of s (callers must not mutate it
// afterwards). An existing entry for key is replaced. Entries are evicted
// least-recently-used until the budget holds; a sample larger than the whole
// budget is not cached at all. Safe on nil.
func (c *Cache[V]) Put(key string, s *core.Sample[V]) {
	if c == nil || s == nil {
		return
	}
	size := s.Footprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	if size > c.budget {
		c.o.rejects.Inc()
		return
	}
	for c.bytes+size > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.evictLocked(back)
	}
	el := c.ll.PushFront(&entry[V]{key: key, s: s, size: size, inserted: time.Now()})
	c.entries[key] = el
	c.bytes += size
	c.o.bytes.Set(c.bytes)
	c.o.entries.Set(int64(c.ll.Len()))
}

// Invalidate drops the entry for key, if present. Safe on nil.
func (c *Cache[V]) Invalidate(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
		c.invalidations++
		c.o.invalidations.Inc()
	}
}

// InvalidatePrefix drops every entry whose key starts with prefix — the
// dataset-level invalidation ("orders/" drops all of orders' partitions).
// Safe on nil.
func (c *Cache[V]) InvalidatePrefix(prefix string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.removeLocked(el)
			c.invalidations++
			c.o.invalidations.Inc()
		}
	}
}

// Reset drops every entry. Safe on nil.
func (c *Cache[V]) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		c.removeLocked(el)
		c.invalidations++
		c.o.invalidations.Inc()
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int64 `json:"entries"`
	Bytes         int64 `json:"bytes"`
	Budget        int64 `json:"budget"`
}

// Stats returns the current counters. Safe on nil (all zero).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       int64(c.ll.Len()),
		Bytes:         c.bytes,
		Budget:        c.budget,
	}
}

// Len returns the number of cached entries. Safe on nil.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the cached footprint total. Safe on nil.
func (c *Cache[V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// removeLocked unlinks el without recording an eviction (replacement and
// invalidation paths). Caller holds c.mu.
func (c *Cache[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.o.bytes.Set(c.bytes)
	c.o.entries.Set(int64(c.ll.Len()))
}

// evictLocked unlinks el as a budget eviction, recording the metric. Caller
// holds c.mu.
func (c *Cache[V]) evictLocked(el *list.Element) {
	c.removeLocked(el)
	c.evictions++
	c.o.evictionsC.Inc()
}
