package warehouse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
)

// The loader hands every query the cached sample itself. What makes that safe
// is one invariant (DESIGN.md §9): nothing a query does writes to a loaded
// sample, and no sample a query returns aliases one. These tests hold every
// read adapter to it.

// cachedEncodings is the codec's view of every sample resident in w's cache.
func cachedEncodings(t *testing.T, w *Warehouse[int64], keys []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		s, ok := w.ld.cache.Get(k)
		if !ok {
			t.Fatalf("%s is not cache-resident", k)
		}
		b, err := storage.EncodeSample(s, storage.Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		out[k] = b
	}
	return out
}

func assertCacheUntouched(t *testing.T, w *Warehouse[int64], want map[string][]byte, when string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k, got := range cachedEncodings(t, w, keys) {
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("%s: cached sample %s changed", when, k)
		}
	}
}

// sharingFixture holds four data sets behind one cache: "hr" (six reservoir
// partitions), "hb" (Bernoulli partitions, thinned to one rate), "sb" (the
// unbounded union) and "mixed" (HR with one partition small enough to be
// exhaustive). One merge of each leaves every partition resident.
func sharingFixture(t *testing.T) (*Warehouse[int64], []string) {
	t.Helper()
	w := New[int64](storage.NewMemStore[int64](), 42)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 22, LoadWorkers: 4, MergeWorkers: 2})
	var keys []string
	for _, ds := range []struct {
		name string
		alg  Algorithm
	}{{"hr", AlgHR}, {"hb", AlgHB}, {"sb", AlgSB}, {"mixed", AlgHR}} {
		if err := w.CreateDataset(ds.name, DatasetConfig{Algorithm: ds.alg, Core: core.ConfigForNF(128), SBRate: 0.05}); err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < 6; p++ {
			hi := (p + 1) * 1000
			if ds.name == "mixed" && p == 3 {
				hi = p*1000 + 50 // fits the footprint: an exhaustive sample
			}
			ingest(t, w, ds.name, fmt.Sprintf("p%d", p), p*1000, hi)
			keys = append(keys, w.key(ds.name, fmt.Sprintf("p%d", p)))
		}
		if _, err := w.MergedSampleContext(bg, ds.name); err != nil {
			t.Fatal(err)
		}
	}
	return w, keys
}

func TestQueriesNeverTouchCachedSamples(t *testing.T) {
	w, keys := sharingFixture(t)
	ctx := context.Background()
	want := cachedEncodings(t, w, keys)
	if s, _ := w.ld.cache.Get(w.key("mixed", "p3")); s.Kind != core.Exhaustive {
		t.Fatalf("fixture: mixed/p3 is %v, want exhaustive", s.Kind)
	}

	planned := func(b plan.Bounds) func() (*core.Sample[int64], error) {
		return func() (*core.Sample[int64], error) {
			s, _, _, err := w.MergedSamplePlanned(ctx, "hr", nil, true,
				PlannedQuery[int64]{Bounds: b, HalfWidth: proxyHW(0.95)})
			return s, err
		}
	}
	adapters := []struct {
		name string
		run  func() (*core.Sample[int64], error)
	}{
		{"all partitions", func() (*core.Sample[int64], error) { return w.MergedSampleContext(ctx, "hr") }},
		{"MergedSampleContext", func() (*core.Sample[int64], error) { return w.MergedSampleContext(ctx, "hr", "p1", "p4", "p5") }},
		{"partial, all partitions", func() (*core.Sample[int64], error) {
			s, _, err := w.MergedSamplePartialContext(ctx, "hr")
			return s, err
		}},
		{"MergedSamplePartialContext", func() (*core.Sample[int64], error) {
			s, _, err := w.MergedSamplePartialContext(ctx, "hr", "p0", "p2")
			return s, err
		}},
		{"window of 3", func() (*core.Sample[int64], error) { return w.WindowContext(ctx, "hr", 3) }},
		{"WindowContext", func() (*core.Sample[int64], error) { return w.WindowContext(ctx, "hr", 4) }},
		{"MergedSamplePlanned/maxerr", planned(plan.Bounds{MaxErr: 0.2})},
		{"MergedSamplePlanned/maxtime", planned(plan.Bounds{MaxTime: time.Minute})},
		{"one partition", func() (*core.Sample[int64], error) { return w.MergedSampleContext(ctx, "hr", "p2") }},
		{"HB data set", func() (*core.Sample[int64], error) { return w.MergedSampleContext(ctx, "hb") }},
		{"SB data set", func() (*core.Sample[int64], error) { return w.MergedSampleContext(ctx, "sb") }},
		{"bounded, SB data set", func() (*core.Sample[int64], error) {
			s, _, _, err := w.MergedSamplePlanned(ctx, "sb", nil, true,
				PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Minute}})
			return s, err
		}},
		{"exhaustive input", func() (*core.Sample[int64], error) { return w.MergedSampleContext(ctx, "mixed") }},
		{"bounded, exhaustive input", func() (*core.Sample[int64], error) {
			s, _, _, err := w.MergedSamplePlanned(ctx, "mixed", nil, true,
				PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Minute}})
			return s, err
		}},
	}
	for _, a := range adapters {
		first, err := a.run()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		assertCacheUntouched(t, w, want, a.name)
		size, parent, random := first.Size(), first.ParentSize, first.Kind == core.BernoulliKind
		// The answer is the caller's: wrecking it must reach nothing shared.
		core.PurgeReservoir(first.Hist, 1, randx.New(9))
		assertCacheUntouched(t, w, want, a.name+", answer purged")
		again, err := a.run()
		if err != nil {
			t.Fatalf("%s, second run: %v", a.name, err)
		}
		// A Bernoulli answer's size is itself a draw; any other is fixed.
		if (!random && again.Size() != size) || again.ParentSize != parent {
			t.Fatalf("%s: answer was size %d of %d, after purging it the next is size %d of %d",
				a.name, size, parent, again.Size(), again.ParentSize)
		}
	}

	// A one-partition merge is that partition's sample, value for value.
	one, err := w.MergedSampleContext(ctx, "hr", "p2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := storage.EncodeSample(one, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want[w.key("hr", "p2")]) {
		t.Fatal("one-partition merge differs from the stored partition sample")
	}

	// PartitionSampleContext's callers may mutate what they get.
	ps, err := w.PartitionSampleContext(ctx, "hr", "p0")
	if err != nil {
		t.Fatal(err)
	}
	core.PurgeReservoir(ps.Hist, 1, randx.New(9))
	assertCacheUntouched(t, w, want, "PartitionSampleContext purged")

	// Strata are the loaded samples themselves, handed out to be read.
	for _, prune := range []bool{false, true} {
		st, zeros, _, err := w.StratifiedRange(ctx, "hr", nil, SketchRange{Lo: 1500, Hi: 3500}, prune, true)
		if err != nil {
			t.Fatal(err)
		}
		if st.NumStrata()+len(zeros) != 6 {
			t.Fatalf("prune=%v: %d strata + %d proven-zero, want 6 partitions", prune, st.NumStrata(), len(zeros))
		}
		assertCacheUntouched(t, w, want, fmt.Sprintf("StratifiedRange prune=%v", prune))
	}
}

// TestSharedSamplesUnderConcurrentQueries runs eight readers over overlapping
// subsets of the same cached partitions, through the k-way, bounded and strata
// paths, while a writer rolls a partition in and out (so invalidation and
// re-fetch race with the reads). Under -race any write to a shared sample is
// a report; afterwards the stable partitions' cached samples are unchanged.
func TestSharedSamplesUnderConcurrentQueries(t *testing.T) {
	w := New[int64](storage.NewMemStore[int64](), 42)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 22, LoadWorkers: 4, MergeWorkers: 2})
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	const stable = 6
	ids := make([]string, stable)
	keys := make([]string, stable)
	for p := range ids {
		ids[p] = fmt.Sprintf("s%d", p)
		keys[p] = w.key("orders", ids[p])
		ingest(t, w, "orders", ids[p], int64(p)*1000, int64(p+1)*1000)
	}
	if _, err := w.MergedSampleContext(bg, "orders"); err != nil {
		t.Fatal(err)
	}
	want := cachedEncodings(t, w, keys)

	ctx := context.Background()
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for gen := int64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			smp, err := w.NewPartitionSampler("orders", "hot", 1000)
			if err != nil {
				t.Error(err)
				return
			}
			for v := 100_000 + gen*1000; v < 101_000+gen*1000; v++ {
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
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				// Three of the six stable partitions, a different window each time.
				sub := []string{ids[(r+i)%stable], ids[(r+i+1)%stable], ids[(r+i+3)%stable]}
				var s *core.Sample[int64]
				var err error
				switch i % 4 {
				case 0:
					s, err = w.MergedSampleContext(ctx, "orders", sub...)
				case 1:
					s, _, err = w.MergedSamplePartialContext(bg, "orders") // may include "hot"
				case 2:
					s, _, _, err = w.MergedSamplePlanned(ctx, "orders", sub, true,
						PlannedQuery[int64]{Bounds: plan.Bounds{MaxErr: 0.5}, HalfWidth: proxyHW(0.95)})
				case 3:
					_, _, _, err = w.StratifiedRange(ctx, "orders", sub, SketchRange{Lo: 0, Hi: 2500}, true, true)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if s != nil {
					core.PurgeReservoir(s.Hist, 1, randx.New(uint64(i))) // the answer is ours to wreck
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	if _, err := w.MergedSampleContext(bg, "orders", ids...); err != nil {
		t.Fatal(err)
	}
	assertCacheUntouched(t, w, want, "after concurrent queries")
}

// TestLoadResolvesHitsInline: a wave mixing resident and absent keys comes
// back in request order with every key looked up exactly once — the resident
// ones as hits in the calling goroutine, the rest as misses through the pool —
// and with one load_partition span per key, labelled by how it was satisfied.
func TestLoadResolvesHitsInline(t *testing.T) {
	w := New[int64](storage.NewMemStore[int64](), 42)
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 22, LoadWorkers: 4})
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for p := 0; p < 8; p++ {
		id := fmt.Sprintf("p%d", p)
		ingest(t, w, "orders", id, int64(p)*1000, int64(p+1)*1000)
		keys = append(keys, w.key("orders", id))
	}
	if _, err := w.MergedSampleContext(bg, "orders", "p1", "p4", "p6"); err != nil { // three residents
		t.Fatal(err)
	}
	before := w.CacheStats()

	tr := obs.StartTrace("", "test")
	res := w.ld.load(obs.ContextWithSpan(context.Background(), tr.Root()), keys)
	tr.Finish()
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("%s: %v", keys[i], r.err)
		}
		if r.s.ParentSize != 1000 || r.s.Hist.Entry(0).Value/1000 != int64(i) {
			t.Fatalf("result %d is not partition p%d's sample: %v", i, i, r.s)
		}
	}
	after := w.CacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 3 || misses != 5 {
		t.Fatalf("wave of 3 resident + 5 absent keys counted %d hits, %d misses", hits, misses)
	}
	labels := map[string]string{}
	for _, c := range tr.Snapshot().Children {
		if c.Name != "load_partition" || c.Values["bytes"] <= 0 {
			t.Fatalf("unexpected load child %+v", c)
		}
		labels[c.Labels["partition"]] = c.Labels["cache"]
	}
	for i, k := range keys {
		want := "miss"
		if i == 1 || i == 4 || i == 6 {
			want = "hit"
		}
		if labels[k] != want {
			t.Fatalf("%s satisfied by %q, want %q (all: %v)", k, labels[k], want, labels)
		}
	}

	// A done context resolves every key to its error, resident or not, and
	// reaches neither the cache counters nor the store.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range w.ld.load(ctx, keys) {
		if !errors.Is(r.err, context.Canceled) || r.s != nil {
			t.Fatalf("%s after cancel: sample %v, err %v", keys[i], r.s, r.err)
		}
	}
	if got := w.CacheStats(); got.Hits != after.Hits || got.Misses != after.Misses {
		t.Fatalf("cancelled wave touched the cache counters: %+v -> %+v", after, got)
	}
}
