package warehouse

import (
	"bytes"
	"os"
	"reflect"
	"sync"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// A store with a codec holds samples in value order, and puts the caller's
// sample in that order before anything is derived from it (DESIGN.md §17).
// These tests hold the write side to the consequence — what a roll records
// is what the stored sample says after a reopen — and the read side to the
// rule that lets cached samples go without an index until someone asks.

// TestRollInDerivesFromStoredOrder: the sidecar (its heavy-hitter table
// depends on entry order), the statistics and the content hash a RollIn
// records equal those recomputed from store.Get after a reopen, for every
// sampler kind, on both stores that encode.
func TestRollInDerivesFromStoredOrder(t *testing.T) {
	stores := map[string]func(t *testing.T) storage.Store[int64]{
		"FileStore": func(t *testing.T) storage.Store[int64] {
			st, err := storage.NewFileStore[int64](t.TempDir(), storage.Int64Codec{})
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"MemStore with codec": func(*testing.T) storage.Store[int64] {
			return storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
		},
	}
	sets := map[string]DatasetConfig{
		"hr": {Algorithm: AlgHR, Core: core.ConfigForNF(64)},
		"hb": {Algorithm: AlgHB, Core: core.ConfigForNF(64)},
		"sb": {Algorithm: AlgSB, SBRate: 0.05, Core: core.ConfigForNF(64)},
	}
	const rows = 4000
	for storeName, open := range stores {
		t.Run(storeName, func(t *testing.T) {
			st := open(t)
			w, _, err := Open[int64](st, 5)
			if err != nil {
				t.Fatal(err)
			}
			for name, cfg := range sets {
				if err := w.CreateDataset(name, cfg); err != nil {
					t.Fatal(err)
				}
				smp, err := w.NewPartitionSampler(name, "p", rows)
				if err != nil {
					t.Fatal(err)
				}
				for v := int64(0); v < rows; v++ {
					smp.Feed(v * 7919 % 97) // scattered, every value some forty times
				}
				s, err := smp.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				if s.Hist.IsSortedFunc(storage.Int64Codec{}.Compare) || s.Hist.Size() == int64(s.Hist.Distinct()) {
					t.Fatalf("%s: fixture %v is already in value order or holds no repeated value", name, s.Hist)
				}
				if err := w.RollIn(name, "p", s); err != nil {
					t.Fatal(err)
				}
			}
			reopened, rep, err := Open[int64](st, 6)
			if err != nil || !rep.Clean() {
				t.Fatalf("reopen: %v, %v", rep, err)
			}
			for name := range sets {
				stored, err := st.Get(w.key(name, "p"))
				if err != nil {
					t.Fatal(err)
				}
				raw, err := st.(storage.RawStore[int64]).GetRaw(w.key(name, "p"))
				if err != nil {
					t.Fatal(err)
				}
				sk := sketch.FromSample(stored)
				for who, wh := range map[string]*Warehouse[int64]{"the roll": w, "the reopened catalog": reopened} {
					sketches, _ := wh.SketchSnapshot(name)
					stats, _ := wh.PartitionStatsSnapshot(name)
					hashes, _ := wh.PartitionHashes(name)
					if !reflect.DeepEqual(sketches["p"], sk) {
						t.Errorf("%s: sidecar of %s differs from one built over the stored sample:\n got %+v\nwant %+v", name, who, sketches["p"], sk)
					}
					if stats["p"] != statsOf(stored) {
						t.Errorf("%s: stats of %s %+v, stored sample says %+v", name, who, stats["p"], statsOf(stored))
					}
					if hashes["p"] != contentHash(raw, sk) || hashes["p"] == "" {
						t.Errorf("%s: hash of %s %q, stored bytes say %q", name, who, hashes["p"], contentHash(raw, sk))
					}
				}
			}
		})
	}
}

// TestMemStoreAdoptsLegacyOrderBytes: a MemStore holds decoded samples and
// re-encodes on GetRaw, so bytes adopted from a peer that still writes
// insertion order come back as the value-ordered encoding of the same
// multiset — the same length, stable from call to call, but not the bytes
// that went in, and so not the hash AdoptPartition sealed (it seals what was
// transferred, which is what the peer's inventory says). A FileStore keeps
// the transferred bytes verbatim and has no such gap; closing it for the
// in-memory store would mean keeping the bytes beside the sample, for the
// one mixed-version, memory-only cluster that could notice.
func TestMemStoreAdoptsLegacyOrderBytes(t *testing.T) {
	legacy, err := os.ReadFile("../storage/testdata/legacy-order.sample")
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
	if err := st.PutRaw("ds/p", legacy); err != nil {
		t.Fatal(err)
	}
	first, err := st.GetRaw("ds/p")
	if err != nil {
		t.Fatal(err)
	}
	second, err := st.GetRaw("ds/p")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) || contentHash(first, nil) != contentHash(second, nil) {
		t.Fatal("GetRaw is not stable from call to call")
	}
	if len(first) != len(legacy) || bytes.Equal(first, legacy) {
		t.Fatalf("GetRaw returned %d bytes (equal to the put: %v), want the %d put in value order",
			len(first), bytes.Equal(first, legacy), len(legacy))
	}
	put, err := st.DecodeRaw(legacy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.DecodeRaw(first)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hist.Equal(put.Hist) || got.ParentSize != put.ParentSize || got.Kind != put.Kind {
		t.Fatalf("GetRaw holds %v, put %v", got, put)
	}
	// Re-putting what GetRaw returned is the fixed point: from there on the
	// store's bytes and any seal over them agree.
	if err := st.PutRaw("ds/p", first); err != nil {
		t.Fatal(err)
	}
	if third, _ := st.GetRaw("ds/p"); !bytes.Equal(third, first) {
		t.Fatal("value-ordered bytes did not round-trip verbatim")
	}
}

// TestSharedHistogramLookups: a decoded, cached sample has no index until a
// lookup builds one, and readers that share it may all be the first to ask.
// Run under -race: eight readers iterate, look values up and compare while a
// ninth clones the shared sample and purges its clone.
func TestSharedHistogramLookups(t *testing.T) {
	st, err := storage.NewFileStore[int64](t.TempDir(), storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := Open[int64](st, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.SetQueryConfig(QueryConfig{CacheBytes: 1 << 22})
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(512)}); err != nil {
		t.Fatal(err)
	}
	ingest(t, w, "ds", "p", 0, 20000)
	want, err := w.PartitionSample("ds", "p") // decodes, caches, returns a copy
	if err != nil {
		t.Fatal(err)
	}
	shared, ok := w.ld.cache.Get(w.key("ds", "p"))
	if !ok {
		t.Fatal("partition is not cache-resident after a read")
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var size int64
				shared.Hist.Each(func(v, c int64) {
					size += c
					if shared.Hist.Count(v) != c {
						t.Errorf("Count(%d) = %d, Each says %d", v, shared.Hist.Count(v), c)
					}
				})
				if size != shared.Hist.Size() || !shared.Hist.Equal(want.Hist) || !want.Hist.Equal(shared.Hist) {
					t.Errorf("shared histogram %v reads as %d elements, want %v", shared.Hist, size, want.Hist)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			c := shared.Clone()
			core.PurgeReservoir(c.Hist, 100, randx.New(uint64(round)))
			if c.Hist.Size() != 100 {
				t.Errorf("purged clone holds %d elements", c.Hist.Size())
			}
		}
	}()
	wg.Wait()
	if !shared.Hist.Equal(want.Hist) {
		t.Fatalf("shared histogram changed: %v, want %v", shared.Hist, want.Hist)
	}
}
