package warehouse

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// blobIO reads the store's catalog side-channel counters.
type blobIO struct{ puts, bytes, gets, deletes int64 }

func readBlobIO(reg *obs.Registry) blobIO {
	return blobIO{
		puts:    reg.Counter("storage.mem.blob_puts").Value(),
		bytes:   reg.Counter("storage.mem.blob_bytes_written").Value(),
		gets:    reg.Counter("storage.mem.blob_gets").Value(),
		deletes: reg.Counter("storage.mem.blob_deletes").Value(),
	}
}

func (a blobIO) minus(b blobIO) blobIO {
	return blobIO{a.puts - b.puts, a.bytes - b.bytes, a.gets - b.gets, a.deletes - b.deletes}
}

// TestRollCostsOnePartition: a roll-in writes its own sidecar and the
// manifest, a roll-out deletes one sidecar and writes the manifest, and what
// they write does not grow with the sidecars of the partitions that did not
// change — the manifest keeps only the small facts. Reads never open a blob.
func TestRollCostsOnePartition(t *testing.T) {
	rolled := externalSample(t, 64, 99, 500000, 505000)
	cycle := func(parts int) (sidecar, manifest int64) {
		st := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
		reg := obs.NewRegistry()
		st.Instrument(reg)
		w, _, err := Open[int64](st, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < parts; i++ {
			lo := int64(i) * 1000
			if err := w.RollIn("ds", fmt.Sprintf("p%03d", i), externalSample(t, 64, uint64(i+1), lo, lo+1000)); err != nil {
				t.Fatal(err)
			}
		}
		manifest = int64(len(storedManifest(t, st)))
		if manifest > 512*int64(parts) {
			t.Fatalf("manifest of %d partitions is %d bytes, want at most 512 each", parts, manifest)
		}

		t0 := readBlobIO(reg)
		if err := w.RollIn("ds", "new", rolled); err != nil {
			t.Fatal(err)
		}
		in := readBlobIO(reg).minus(t0)
		afterIn := int64(len(storedManifest(t, st)))
		t1 := readBlobIO(reg)
		if err := w.RollOut("ds", "p000"); err != nil {
			t.Fatal(err)
		}
		out := readBlobIO(reg).minus(t1)
		afterOut := int64(len(storedManifest(t, st)))
		if in.puts != 2 || in.deletes != 0 || in.gets != 0 {
			t.Fatalf("roll-in at %d partitions: %+v, want one sidecar and one manifest written, nothing read", parts, in)
		}
		if want := (blobIO{puts: 1, bytes: afterOut, deletes: 1}); out != want {
			t.Fatalf("roll-out at %d partitions: %+v, want %+v", parts, out, want)
		}
		if _, err := st.GetBlob("ds/p000"); !storage.IsNotFound(err) {
			t.Fatalf("rolled-out partition's sidecar is still stored (err = %v)", err)
		}

		// Warm the cache, then read every way the server does.
		w.SetQueryConfig(QueryConfig{CacheBytes: 64 << 20})
		if _, err := w.MergedSampleContext(bg, "ds"); err != nil {
			t.Fatal(err)
		}
		t2 := readBlobIO(reg)
		if _, err := w.MergedSampleContext(bg, "ds"); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := w.StratifiedRange(context.Background(), "ds", nil, SketchRange{Lo: 2000, Hi: 4500}, true, false); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Partitions("ds"); err != nil {
			t.Fatal(err)
		}
		if reads := readBlobIO(reg).minus(t2); reads != (blobIO{}) {
			t.Fatalf("reads at %d partitions touched the blob store: %+v", parts, reads)
		}
		return in.bytes - afterIn, afterIn
	}
	side16, man16 := cycle(16)
	side256, man256 := cycle(256)
	if side16 != side256 || side16 <= 0 {
		t.Fatalf("sidecar bytes per roll: %d at 16 partitions, %d at 256; want equal", side16, side256)
	}
	if man256 <= man16 {
		t.Fatalf("manifest bytes %d at 16 partitions, %d at 256: the fixture is not growing", man16, man256)
	}
}

// legacyFacts is what the exported accessors say about every data set.
type legacyFacts struct {
	Partitions map[string][]string
	Stats      map[string]map[string]PartitionStats
	Sketches   map[string]map[string]*sketch.Summary
	Hashes     map[string]map[string]string
}

func newLegacyFacts() legacyFacts {
	return legacyFacts{map[string][]string{}, map[string]map[string]PartitionStats{},
		map[string]map[string]*sketch.Summary{}, map[string]map[string]string{}}
}

func factsOf(t *testing.T, w *Warehouse[int64]) legacyFacts {
	t.Helper()
	f := newLegacyFacts()
	for _, ds := range w.Datasets() {
		f.Partitions[ds], _ = w.Partitions(ds)
		f.Stats[ds], _ = w.PartitionStatsSnapshot(ds)
		f.Sketches[ds], _ = w.SketchSnapshot(ds)
		f.Hashes[ds], _ = w.PartitionHashes(ds)
	}
	return f
}

// TestLegacyManifestMigrates: a store whose manifest carries its sidecars
// inline (the golden fixture, as the previous layout wrote it) opens to the
// same records; the first catalog write moves the sidecars out — blobs first,
// manifest last, so a write that dies in between still reopens in the legacy
// form — and from then on the manifest is the golden bytes less
// partition_sketches.
func TestLegacyManifestMigrates(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(golden, &m); err != nil {
		t.Fatal(err)
	}
	want := newLegacyFacts()
	for name, md := range m.Datasets {
		want.Partitions[name] = md.Partitions
		want.Stats[name] = map[string]PartitionStats{}
		for id, st := range md.Stats {
			want.Stats[name][id] = st.PartitionStats
		}
		want.Sketches[name] = md.Sketches
		want.Hashes[name] = md.Hashes
	}

	st, _ := goldenStore(t)
	for key := range storedSidecars(t, st) {
		if err := st.DeleteBlob(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutBlob(manifestName, golden); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	open := func(store storage.Store[int64]) *Warehouse[int64] {
		t.Helper()
		w, rep, err := Open[int64](store, 7)
		if err != nil || !rep.Clean() {
			t.Fatalf("open: %v, %v", rep, err)
		}
		return w
	}

	w := open(st)
	if got := factsOf(t, w); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy manifest loaded as\n%+v\nwant\n%+v", got, want)
	}
	if io := readBlobIO(reg); io.puts != 0 || io.deletes != 0 {
		t.Fatalf("opening a legacy store wrote to it: %+v", io)
	}

	// The manifest put fails mid-migration: the sidecars are out, the legacy
	// manifest still stands, and it still wins.
	failing := open(faults.Wrap[int64](st, faults.FailKey{Op: faults.OpPutBlob, Key: manifestName, Err: errBlob}))
	if err := resave(failing); !errors.Is(err, errBlob) {
		t.Fatalf("catalog write with a failing manifest put: %v", err)
	}
	if got := storedManifest(t, st); !bytes.Equal(got, golden) {
		t.Fatal("the failed migration changed the manifest")
	}
	if got := storedSidecars(t, st); len(got) != 5 {
		t.Fatalf("sidecar blobs after the failed migration: %d, want the 5 written ahead of the manifest", len(got))
	}
	if got := factsOf(t, open(st)); !reflect.DeepEqual(got, want) {
		t.Fatalf("half-migrated store loaded as\n%+v\nwant\n%+v", got, want)
	}

	// The first catalog write that lands completes it.
	before := readBlobIO(reg)
	if err := resave(w); err != nil {
		t.Fatal(err)
	}
	if io := readBlobIO(reg).minus(before); io.puts != 6 {
		t.Fatalf("migration wrote %d blobs, want 5 sidecars and the manifest", io.puts)
	}
	if got := storedManifest(t, st); !bytes.Equal(got, withoutSidecars(t, golden)) {
		t.Fatalf("migrated manifest is not the golden one less its sidecars:\n%s", got)
	}
	w2 := open(st)
	if got := factsOf(t, w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated store loaded as\n%+v\nwant\n%+v", got, want)
	}
	before = readBlobIO(reg)
	if err := w2.CreateDataset("later", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	if io := readBlobIO(reg).minus(before); io.puts != 1 {
		t.Fatalf("a catalog write after migration wrote %d blobs, want the manifest alone", io.puts)
	}
}

// sidecarSeeds are stored sidecars in every state a reader can find one.
func sidecarSeeds(f *testing.F) [][]byte {
	valid, err := json.Marshal(sketch.FromSample(fuzzSample(f)))
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		valid,
		valid[:len(valid)/2],
		bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":99`), 1),
		bytes.Replace(valid, []byte(`"min":`), []byte(`"min":9`), 1),
		[]byte(`null`),
		[]byte(`{}`),
		[]byte(`[]`),
		[]byte(`{"version":1,"source":"sample","count":1,"observed":1,"min":5,"max":5,"kmv_k":1,"kmv":[3,2,1],"heavy_k":1}`),
		nil,
	}
}

func fuzzSample(t testing.TB) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(64), randx.New(1))
	for v := int64(1000); v < 1040; v++ { // below n_F: stored exhaustively
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzLoadSidecar: whatever bytes sit where a partition's sidecar should be,
// reading them never panics; the warehouse that opens over them holds either a
// sidecar that validates or none; a pruned query and fsck run; and fsck -fix
// leaves a sidecar that loads.
func FuzzLoadSidecar(f *testing.F) {
	for _, seed := range sidecarSeeds(f) {
		f.Add(seed)
	}
	sample := fuzzSample(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := storage.NewMemStore[int64]()
		w, _, err := Open[int64](st, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
			t.Fatal(err)
		}
		if err := w.RollIn("ds", "p", sample); err != nil {
			t.Fatal(err)
		}
		if err := st.PutBlob("ds/p", data); err != nil {
			t.Fatal(err)
		}

		stored := loadSidecar(st, "ds/p")
		w, _, err = Open[int64](st, 1)
		if err != nil {
			t.Fatal(err)
		}
		sk, ok, err := partitionSketch(w, "ds", "p")
		if err != nil {
			t.Fatal(err)
		}
		if ok != (stored != nil && stored.Validate() == nil) {
			t.Fatalf("stored sidecar %+v (validate: %v) loaded as present=%v", stored, stored.Validate(), ok)
		}
		if ok && sk.Validate() != nil {
			t.Fatalf("an invalid sidecar was loaded: %v", sk.Validate())
		}
		if _, _, _, err := w.StratifiedRange(context.Background(), "ds", nil, SketchRange{Lo: 0, Hi: 10}, true, false); err != nil {
			t.Fatal(err)
		}
		if _, err := FsckSketches(st, false); err != nil {
			t.Fatal(err)
		}
		if _, err := FsckSketches(st, true); err != nil {
			t.Fatal(err)
		}
		if fixed := loadSidecar(st, "ds/p"); fixed == nil || fixed.Version != sketch.Version || fixed.Validate() != nil {
			t.Fatalf("sidecar after fsck -fix: %+v", fixed)
		}
	})
}
