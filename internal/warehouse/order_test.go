package warehouse

import (
	"bytes"
	"os"
	"reflect"
	"sync"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// A store holds samples in value order, and puts the caller's
// sample in that order before anything is derived from it (DESIGN.md §17).
// These tests hold the write side to the consequence — what a roll records
// is what the stored sample says after a reopen — and the read side to the
// rule that lets cached samples go without an index until someone asks.

// TestRollInDerivesFromStoredOrder: the sidecar (its heavy-hitter table
// depends on entry order), the statistics and the content hash a RollIn
// records equal those recomputed from store.Get after a reopen, for every
// sampler kind, on both stores.
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
			return storage.NewMemStore[int64](storage.Int64Codec{})
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
				if name == "hr" {
					// HR finalizes an int64 reservoir in value order already;
					// a seeded shuffle gives the roll an order to impose.
					entries := s.Hist.Entries()
					r := randx.New(67)
					for i := len(entries) - 1; i > 0; i-- {
						j := randx.Intn(r, i+1)
						entries[i], entries[j] = entries[j], entries[i]
					}
					s.Hist = histogram.FromEntries(s.Hist.Model(), entries)
				}
				if s.Hist.IsSorted() || s.Hist.Size() == int64(s.Hist.Distinct()) {
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
				raw, err := st.GetRaw(w.key(name, "p"))
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

// TestMemStoreAdoptsLegacyOrderBytes: a MemStore keeps the bytes it is given,
// so a partition adopted from a peer that still writes insertion order is
// stored verbatim: the export hands the same bytes on, and the hash
// AdoptPartition sealed over what was transferred is the hash of what the
// store holds, so an audit of the hashes finds nothing to fix.
func TestMemStoreAdoptsLegacyOrderBytes(t *testing.T) {
	legacy, err := os.ReadFile("../storage/testdata/legacy-order.sample")
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewMemStore[int64](storage.Int64Codec{})
	w, _, err := Open[int64](st, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	if err := w.AdoptPartition("ds", "p", legacy, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := st.GetRaw(w.key("ds", "p"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, legacy) {
		t.Fatalf("GetRaw returned %d bytes, not the %d adopted verbatim", len(raw), len(legacy))
	}
	tr, err := w.ExportPartition("ds", "p")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Raw, legacy) {
		t.Error("the export re-encoded the adopted bytes")
	}
	hashes, _ := w.PartitionHashes("ds")
	if hashes["p"] == "" || hashes["p"] != tr.Hash || hashes["p"] != contentHash(raw, tr.Sketch) {
		t.Errorf("sealed hash %q, export says %q, stored bytes say %q", hashes["p"], tr.Hash, contentHash(raw, tr.Sketch))
	}
	rep, err := FsckHashes(st, false)
	if err != nil || rep.Problems() != 0 {
		t.Errorf("hash audit after adopting legacy bytes: %+v, %v", rep, err)
	}
}

// TestSharedHistogramLookups: a decoded, cached sample has no index until a
// lookup builds one, and readers that share it may all be the first to ask —
// for the index or for the list of repeated entries a merge maps positions
// through. Run under -race: eight readers iterate, look values up and compare
// while a ninth clones the shared sample and purges its clone.
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
	want, err := w.PartitionSampleContext(bg, "ds", "p") // decodes, caches, returns a copy
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
				for _, i := range shared.Hist.Repeats() {
					if c := shared.Hist.Entry(i).Count; c < 2 {
						t.Errorf("Repeats lists entry %d, of count %d", i, c)
					}
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
