package warehouse

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/plan"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// The golden manifest pins the on-disk catalog format: it was written by the
// commit before the catalog became one record per partition (run this test
// with -update-golden there to regenerate it), from the deterministic build
// below — an HR and an SB data set, partition-seeded samplers, one
// stream-sketched roll-in, one replaced roll-in, one roll-out. It carries its
// five sidecars inline, which makes it the legacy fixture too: today's writer
// produces the same manifest minus partition_sketches, and the same sidecars
// as one blob each. Its partition_hashes values and the inline sidecar bodies
// (not its layout, ids or stats) were rebuilt once since: when stores began
// writing samples in value order, the bytes the HR partitions hash to, and
// the entry order their sample-built heavy-hitter tables follow, changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-manifest.json from goldenStore (at the commit that wrote sidecars inline)")

const goldenPath = "testdata/golden-manifest.json"

// goldenStore replays the golden build into a fresh in-memory store and
// returns it with the live warehouse; the store's manifest blob is what the
// golden file records.
func goldenStore(t testing.TB) (*storage.MemStore[int64], *Warehouse[int64]) {
	t.Helper()
	st := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
	w, _, err := Open[int64](st, 2006)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}))
	must(w.CreateDataset("clicks", DatasetConfig{Algorithm: AlgSB, SBRate: 0.05, Core: core.ConfigForNF(64)}))
	roll := func(ds, part string, lo, hi, step int64, sketched bool) {
		t.Helper()
		smp, err := w.NewPartitionSampler(ds, part, 0)
		must(err)
		b := sketch.NewBuilder()
		for v := lo; v < hi; v += step {
			smp.Feed(v)
			b.Add(v)
		}
		s, err := smp.Finalize()
		must(err)
		if sketched {
			must(w.RollInSketched(ds, part, s, b.Summary()))
		} else {
			must(w.RollIn(ds, part, s))
		}
	}
	roll("orders", "d1", 0, 5000, 1, false)
	roll("orders", "d2", 5000, 5040, 1, false) // below n_F: stored exhaustively
	roll("orders", "d3", 10000, 30000, 3, true)
	roll("orders", "d4", 40000, 45000, 1, false)
	roll("clicks", "c1", 0, 4000, 1, false)
	roll("clicks", "c2", 4000, 9000, 2, true)
	roll("clicks", "c3", 9000, 9500, 1, false)
	roll("orders", "d2", 7000, 9000, 1, false) // replaced in place: keeps its slot
	must(w.RollOut("orders", "d1"))
	must(w.RollOut("clicks", "c3"))
	return st, w
}

func storedManifest(t testing.TB, st *storage.MemStore[int64]) []byte {
	t.Helper()
	data, err := st.GetBlob(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withoutSidecars is a manifest as today's writer lays it out: the same bytes
// less the inline partition_sketches.
func withoutSidecars(t testing.TB, data []byte) []byte {
	return stripped(t, data, "partition_sketches")
}

// storedSidecars returns the sidecar blob of every partition the manifest
// names that has one, by store key, re-marshalled compactly.
func storedSidecars(t testing.TB, st *storage.MemStore[int64]) map[string]string {
	t.Helper()
	m, err := loadManifest(st)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for name, md := range m.Datasets {
		for _, id := range md.Partitions {
			if sk := loadSidecar(st, name+"/"+id); sk != nil {
				data, err := json.Marshal(sk)
				if err != nil {
					t.Fatal(err)
				}
				out[name+"/"+id] = string(data)
			}
		}
	}
	return out
}

// reopenAndResave puts data in place of st's manifest, opens a warehouse over
// it and forces a catalog write, returning the warehouse and what it wrote.
func reopenAndResave(t *testing.T, st *storage.MemStore[int64], data []byte) (*Warehouse[int64], []byte) {
	t.Helper()
	if err := st.PutBlob(manifestName, data); err != nil {
		t.Fatal(err)
	}
	w, rep, err := Open[int64](st, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("golden store reopened unclean: %v", rep)
	}
	if err := resave(w); err != nil {
		t.Fatal(err)
	}
	return w, storedManifest(t, st)
}

// resave forces the catalog write any catalog mutation ends with.
func resave(w *Warehouse[int64]) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.saveManifest()
}

func TestGoldenManifest(t *testing.T) {
	st, _ := goldenStore(t)
	built := storedManifest(t, st)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, built, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	// The write side still produces the same catalog, byte for byte: same
	// partition order, same stats, same content hashes (so the same stored
	// sample bytes and the same RNG draws) in the manifest, and the same
	// sidecars beside the samples.
	if !bytes.Equal(built, withoutSidecars(t, golden)) {
		t.Fatalf("rebuilt manifest differs from golden less its sidecars:\n%s", built)
	}
	var m manifest
	if err := json.Unmarshal(golden, &m); err != nil {
		t.Fatal(err)
	}
	inline := map[string]string{}
	for name, md := range m.Datasets {
		for id, sk := range md.Sketches {
			data, err := json.Marshal(sk)
			if err != nil {
				t.Fatal(err)
			}
			inline[name+"/"+id] = string(data)
		}
	}
	if got := storedSidecars(t, st); len(inline) != 5 || !reflect.DeepEqual(got, inline) {
		t.Fatalf("rebuilt sidecar blobs differ from the golden manifest's inline ones:\n got %v\nwant %v", got, inline)
	}
	// ...and the read side loads the golden manifest and writes it back in
	// today's layout, every other byte unchanged.
	if _, resaved := reopenAndResave(t, st, golden); !bytes.Equal(resaved, withoutSidecars(t, golden)) {
		t.Fatalf("golden manifest re-saved differently:\n%s", resaved)
	}

	if got := m.Datasets["orders"].Partitions; len(got) != 3 || got[0] != "d2" {
		t.Fatalf("orders partitions = %v, want the replaced d2 first of three", got)
	}

	// A persisted load-latency EWMA survives the round trip.
	md := m.Datasets["orders"]
	st3 := md.Stats["d3"]
	st3.LoadEWMANS = 123456
	md.Stats["d3"] = st3
	withEWMA, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, resaved := reopenAndResave(t, st, withEWMA); !bytes.Equal(resaved, withoutSidecars(t, withEWMA)) {
		t.Fatalf("load_ewma_ns lost in the round trip:\n%s", resaved)
	}
}

// stripped returns the golden manifest as a build that predates one of the
// optional registries would have written it.
func stripped(t testing.TB, golden []byte, field string) []byte {
	t.Helper()
	var m manifest
	if err := json.Unmarshal(golden, &m); err != nil {
		t.Fatal(err)
	}
	for name, md := range m.Datasets {
		switch field {
		case "partition_stats":
			md.Stats = nil
		case "partition_sketches":
			md.Sketches = nil
		case "partition_hashes":
			md.Hashes = nil
		}
		m.Datasets[name] = md
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var strippedFields = []string{"partition_stats", "partition_sketches", "partition_hashes"}

// TestGoldenManifestStripped: manifests from before each optional registry
// existed still load, keep what they do carry, re-save without inventing the
// missing registry, and backfill it the way they always have.
func TestGoldenManifestStripped(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range strippedFields {
		t.Run(field, func(t *testing.T) {
			st, _ := goldenStore(t)
			old := stripped(t, golden, field)
			if field == "partition_sketches" {
				// A store from before sidecars has none beside its samples either.
				for key := range storedSidecars(t, st) {
					if err := st.DeleteBlob(key); err != nil {
						t.Fatal(err)
					}
				}
			}
			w, resaved := reopenAndResave(t, st, old)
			if !bytes.Equal(resaved, withoutSidecars(t, old)) {
				t.Fatalf("manifest without %s re-saved differently:\n%s", field, resaved)
			}
			parts, _ := w.Partitions("orders")
			stats, _ := w.PartitionStatsSnapshot("orders")
			sketches, _ := w.SketchSnapshot("orders")
			hashes, _ := w.PartitionHashes("orders")
			nonEmpty := 0
			for _, h := range hashes {
				if h != "" {
					nonEmpty++
				}
			}
			want := map[string]int{"partition_stats": len(parts), "partition_sketches": len(parts), "partition_hashes": len(parts)}
			want[field] = 0
			if len(parts) != 3 || len(stats) != want["partition_stats"] ||
				len(sketches) != want["partition_sketches"] || nonEmpty != want["partition_hashes"] {
				t.Fatalf("loaded %d partitions, %d stats, %d sketches, %d hashes; want %v",
					len(parts), len(stats), len(sketches), nonEmpty, want)
			}
			switch field {
			case "partition_stats":
				// A bounded query backfills the statistics it plans without.
				q := PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Hour}}
				if _, _, _, err := w.MergedSamplePlanned(t.Context(), "orders", nil, false, q); err != nil {
					t.Fatal(err)
				}
				if stats, _ = w.PartitionStatsSnapshot("orders"); len(stats) != len(parts) {
					t.Fatalf("stats after a bounded query = %v, want all %d backfilled", stats, len(parts))
				}
			case "partition_sketches":
				// A sketch-union query rebuilds the sidecars it loads for.
				if _, err := w.DatasetSketch(t.Context(), "orders"); err != nil {
					t.Fatal(err)
				}
				if sketches, _ = w.SketchSnapshot("orders"); len(sketches) != len(parts) {
					t.Fatalf("sketches after a union query = %d, want all %d backfilled", len(sketches), len(parts))
				}
			case "partition_hashes":
				// fsck -fix re-seals from the stored bytes — to the golden seals.
				rep, err := FsckHashes(st, true)
				if err != nil || len(rep.Missing) != 5 || len(rep.Fixed) != 5 {
					t.Fatalf("FsckHashes(fix) = %+v, %v; want 5 missing, 5 fixed", rep, err)
				}
				if got := storedManifest(t, st); !bytes.Equal(got, withoutSidecars(t, golden)) {
					t.Fatalf("re-sealed manifest differs from golden:\n%s", got)
				}
			}
		})
	}
}
