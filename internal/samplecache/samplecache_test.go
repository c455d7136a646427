package samplecache

import (
	"fmt"
	"sync"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/obs"
)

// sampleWith returns a sample whose footprint is exactly 8*distinct bytes
// (distinct int64 singletons under the default size model).
func sampleWith(distinct int) *core.Sample[int64] {
	bag := make([]int64, distinct)
	for i := range bag {
		bag[i] = int64(i)
	}
	return &core.Sample[int64]{
		Kind:       core.Exhaustive,
		Hist:       histogram.FromBag(histogram.DefaultSizeModel, bag),
		ParentSize: int64(distinct),
		Q:          1,
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache[int64]
	if c := New[int64](0); c != nil {
		t.Fatal("budget 0 should return the nil (disabled) cache")
	}
	if c := New[int64](-5); c != nil {
		t.Fatal("negative budget should return the nil cache")
	}
	c.Put("a", sampleWith(1))
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.Invalidate("a")
	c.InvalidatePrefix("a")
	c.Reset()
	c.Instrument(obs.NewRegistry())
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v, want zero", s)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache reports contents")
	}
}

func TestPutGetAndLRUEviction(t *testing.T) {
	c := New[int64](32) // room for four 8-byte singletons
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, sampleWith(1))
	}
	if c.Len() != 4 || c.Bytes() != 32 {
		t.Fatalf("len=%d bytes=%d, want 4/32", c.Len(), c.Bytes())
	}
	// Promote b, then overflow: the least recently used entry (a) must go.
	if _, ok := c.Get("b"); !ok {
		t.Fatal("miss on b")
	}
	c.Put("e", sampleWith(1))
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted (LRU)")
	}
	for _, k := range []string{"b", "c", "d", "e"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
}

func TestPutLargerSampleEvictsSeveral(t *testing.T) {
	c := New[int64](32)
	for i, k := range []string{"a", "b", "c", "d"} {
		_ = i
		c.Put(k, sampleWith(1))
	}
	// A 24-byte sample forces out the three oldest.
	c.Put("big", sampleWith(3))
	if c.Bytes() != 32 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 32/2", c.Bytes(), c.Len())
	}
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d (most recent) should survive")
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("big should be cached")
	}
}

func TestPutReplacesExisting(t *testing.T) {
	c := New[int64](64)
	c.Put("k", sampleWith(2))
	c.Put("k", sampleWith(4))
	if c.Len() != 1 || c.Bytes() != 32 {
		t.Fatalf("len=%d bytes=%d after replace, want 1/32", c.Len(), c.Bytes())
	}
	s, ok := c.Get("k")
	if !ok || s.Size() != 4 {
		t.Fatalf("replacement not visible: ok=%v", ok)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("replacement counted as eviction: %+v", st)
	}
}

func TestOversizedSampleRejected(t *testing.T) {
	c := New[int64](32)
	c.Put("small", sampleWith(1))
	c.Put("huge", sampleWith(100)) // 800 bytes > 32 budget
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized sample was cached")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("rejecting an oversized sample must not disturb residents")
	}
}

func TestInvalidate(t *testing.T) {
	c := New[int64](1 << 10)
	c.Put("ds/p1", sampleWith(1))
	c.Put("ds/p2", sampleWith(1))
	c.Put("other/p1", sampleWith(1))

	c.Invalidate("ds/p1")
	if _, ok := c.Get("ds/p1"); ok {
		t.Fatal("invalidated key still served")
	}
	c.Invalidate("ds/p1") // absent: no-op, not counted

	c.InvalidatePrefix("ds/")
	if _, ok := c.Get("ds/p2"); ok {
		t.Fatal("prefix invalidation missed ds/p2")
	}
	if _, ok := c.Get("other/p1"); !ok {
		t.Fatal("prefix invalidation overreached")
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations %d, want 2", st.Invalidations)
	}

	c.Reset()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("reset left entries behind")
	}
}

func TestStatsAndMetricsMirror(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int64](16)
	c.Instrument(reg)

	c.Put("a", sampleWith(1))
	c.Put("b", sampleWith(1))
	c.Get("a")                // hit
	c.Get("missing")          // miss
	c.Put("c", sampleWith(1)) // evicts b (LRU after a's hit)
	c.Invalidate("a")

	st := c.Stats()
	want := Stats{Hits: 1, Misses: 1, Evictions: 1, Invalidations: 1, Entries: 1, Bytes: 8, Budget: 16}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	snap := reg.Snapshot()
	for name, v := range map[string]int64{
		"samplecache.hits":          1,
		"samplecache.misses":        1,
		"samplecache.evictions":     1,
		"samplecache.invalidations": 1,
	} {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
		}
	}
	for name, v := range map[string]int64{
		"samplecache.bytes":   8,
		"samplecache.entries": 1,
	} {
		if snap.Gauges[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Gauges[name], v)
		}
	}
}

// TestEvictionCounted: a budget eviction drops the least recently used entry
// and moves samplecache.evictions by one.
func TestEvictionCounted(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int64](8)
	c.Instrument(reg)
	c.Put("a", sampleWith(1))
	c.Put("b", sampleWith(1)) // evicts a
	if n := reg.Counter("samplecache.evictions").Value(); n != 1 {
		t.Fatalf("samplecache.evictions = %d, want 1", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a survived its eviction")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b was evicted instead of a")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int64](1 << 12)
	c.Instrument(obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("ds/p%d", (g*7+i)%32)
				if i%3 == 0 {
					c.Put(key, sampleWith(1+i%8))
				} else if i%17 == 0 {
					c.Invalidate(key)
				} else {
					if s, ok := c.Get(key); ok && s.Size() <= 0 {
						t.Error("cached sample with nonpositive size")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 1<<12 {
		t.Fatalf("budget exceeded: %d", c.Bytes())
	}
}
