package warehouse

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// writerFixture is one durable, instrumented, traced warehouse over an
// in-memory store with raw access, holding an empty HR data set "ds".
type writerFixture struct {
	st   *storage.MemStore[int64]
	w    *Warehouse[int64]
	reg  *obs.Registry
	sink *obs.MemorySink
}

func newWriterFixture(t *testing.T) *writerFixture {
	t.Helper()
	f := &writerFixture{
		st:   storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{}),
		reg:  obs.NewRegistry(),
		sink: obs.NewMemorySink(16),
	}
	var err error
	if f.w, _, err = Open[int64](f.st, 11); err != nil {
		t.Fatal(err)
	}
	f.reg.SetSink(f.sink)
	f.w.Instrument(f.reg)
	if err := f.w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	return f
}

// catalogFacts is everything the exported accessors say about "ds".
type catalogFacts struct {
	Partitions []string
	Stats      map[string]PartitionStats
	Sketches   map[string]*sketch.Summary
	Hashes     map[string]string
	Gauges     [3]int64 // ds.partitions, partition_stats_entries, partition_sketch_entries
	Errors     int64
	Events     []obs.Event // roll_in events, modulo the mode label and the clock
}

func (f *writerFixture) facts(t *testing.T) catalogFacts {
	t.Helper()
	var c catalogFacts
	var err error
	if c.Partitions, err = f.w.Partitions("ds"); err != nil {
		t.Fatal(err)
	}
	c.Stats, _ = f.w.PartitionStatsSnapshot("ds")
	c.Sketches, _ = f.w.SketchSnapshot("ds")
	c.Hashes, _ = f.w.PartitionHashes("ds")
	c.Gauges = [3]int64{
		f.reg.Gauge("warehouse.ds.partitions").Value(),
		f.reg.Gauge("warehouse.partition_stats_entries").Value(),
		f.reg.Gauge("warehouse.partition_sketch_entries").Value(),
	}
	c.Errors = f.reg.Counter("warehouse.errors").Value()
	for _, e := range f.sink.Events() {
		if e.Type == obs.EvRollIn {
			c.Events = append(c.Events, obs.Event{Type: e.Type, Component: e.Component,
				Dataset: e.Dataset, Partition: e.Partition, Values: e.Values})
		}
	}
	return c
}

// TestThreeWritersAgree: the same sample bytes entering the catalog by
// RollIn, by ExportPartition→AdoptPartition and by Attach over a copied store
// go through one install, so every accessor, gauge and event agrees; only the
// lifecycle counter (rollins vs attaches) and the event's mode label name the
// writer.
func TestThreeWritersAgree(t *testing.T) {
	rolled, adopted, attached := newWriterFixture(t), newWriterFixture(t), newWriterFixture(t)

	if err := rolled.w.RollIn("ds", "p", externalSample(t, 64, 3, 0, 5000)); err != nil {
		t.Fatal(err)
	}
	tr, err := rolled.w.ExportPartition("ds", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := adopted.w.AdoptPartition("ds", "p", tr.Raw, tr.Sketch); err != nil {
		t.Fatal(err)
	}
	if err := attached.st.PutRaw("ds/p", tr.Raw); err != nil {
		t.Fatal(err)
	}
	if err := attached.w.Attach("ds", "p"); err != nil {
		t.Fatal(err)
	}

	want := rolled.facts(t)
	if len(want.Partitions) != 1 || len(want.Stats) != 1 || len(want.Sketches) != 1 ||
		want.Hashes["p"] != tr.Hash || want.Gauges != [3]int64{1, 1, 1} || len(want.Events) != 1 {
		t.Fatalf("roll-in left %+v", want)
	}
	for name, f := range map[string]*writerFixture{"adopt": adopted, "attach": attached} {
		if got := f.facts(t); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		for _, e := range f.sink.Events() {
			if e.Type == obs.EvRollIn && e.Labels["mode"] != name {
				t.Errorf("%s roll_in event labels %v", name, e.Labels)
			}
		}
	}
	for _, c := range []struct {
		f                          *writerFixture
		rollins, attaches, sketchs int64
	}{
		{rolled, 1, 0, 1},
		{adopted, 0, 1, 0}, // the sidecar travelled with the bytes: nothing built
		{attached, 0, 1, 1},
	} {
		got := [3]int64{c.f.reg.Counter("warehouse.rollins").Value(), c.f.reg.Counter("warehouse.attaches").Value(),
			c.f.reg.Counter("sketch.builds").Value()}
		if got != [3]int64{c.rollins, c.attaches, c.sketchs} {
			t.Errorf("rollins, attaches, sketch.builds = %v, want %v", got, [3]int64{c.rollins, c.attaches, c.sketchs})
		}
	}
}

// blobFault fails every manifest write while on.
type blobFault struct{ on atomic.Bool }

var errBlob = errors.New("manifest disk full")

func (b *blobFault) Decide(op faults.Op, _ int64, _ string) faults.Fault {
	if op == faults.OpPutBlob && b.on.Load() {
		return faults.Fault{Err: errBlob}
	}
	return faults.Fault{}
}

// rawFaultStore adds the raw-bytes extension the fault injector does not
// forward, so AdoptPartition works over it.
type rawFaultStore struct {
	*faults.Store[int64]
	mem *storage.MemStore[int64]
}

func (s rawFaultStore) GetRaw(key string) ([]byte, error) { return s.mem.GetRaw(key) }
func (s rawFaultStore) PutRaw(key string, b []byte) error { return s.mem.PutRaw(key, b) }
func (s rawFaultStore) DecodeRaw(b []byte) (*core.Sample[int64], error) {
	return s.mem.DecodeRaw(b)
}

// TestFailedPersistLeavesCatalogAtLastManifest: when the manifest cannot be
// written, every catalog writer returns the error with the in-memory catalog
// equal to the last manifest that was written — a new partition is not
// listed, a replaced one keeps its old record, a rolled-out one is still
// there — and the same call converges once the store recovers.
func TestFailedPersistLeavesCatalogAtLastManifest(t *testing.T) {
	mem := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
	fault := &blobFault{}
	st := rawFaultStore{Store: faults.Wrap[int64](mem, fault), mem: mem}
	w, _, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.Instrument(reg)
	if err := w.CreateDataset("ds", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"a", "b", "c"} {
		if err := w.RollIn("ds", p, externalSample(t, 64, uint64(i+1), int64(i)*1000, int64(i+1)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	donor := newWriterFixture(t)
	if err := donor.w.RollIn("ds", "x", externalSample(t, 64, 9, 7000, 9000)); err != nil {
		t.Fatal(err)
	}
	tr, err := donor.w.ExportPartition("ds", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.PutRaw("ds/onDisk", tr.Raw); err != nil {
		t.Fatal(err)
	}

	inMemory := func() []byte {
		w.mu.Lock()
		defer w.mu.Unlock()
		data, err := json.MarshalIndent(w.buildManifest(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	durable := func() []byte {
		data, err := mem.GetBlob(manifestName)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	writers := []struct {
		name string
		call func() error
	}{
		{"RollIn new", func() error { return w.RollIn("ds", "d", externalSample(t, 64, 4, 3000, 4000)) }},
		{"RollIn replace", func() error { return w.RollIn("ds", "a", externalSample(t, 64, 5, 0, 3000)) }},
		{"AdoptPartition new", func() error { return w.AdoptPartition("ds", "x", tr.Raw, tr.Sketch) }},
		{"AdoptPartition replace", func() error { return w.AdoptPartition("ds", "b", tr.Raw, tr.Sketch) }},
		{"Attach", func() error { return w.Attach("ds", "onDisk") }},
		{"RollOut", func() error { return w.RollOut("ds", "c") }},
	}
	for _, wr := range writers {
		before := durable()
		gauge := reg.Gauge("warehouse.ds.partitions").Value()
		fault.on.Store(true)
		err := wr.call()
		fault.on.Store(false)
		if !errors.Is(err, errBlob) {
			t.Fatalf("%s with a failing manifest write: err = %v", wr.name, err)
		}
		if !bytes.Equal(durable(), before) {
			t.Fatalf("%s: the failed write changed the durable manifest", wr.name)
		}
		if got := inMemory(); !bytes.Equal(got, before) {
			t.Errorf("%s: in-memory catalog ran ahead of the manifest:\n%s", wr.name, got)
		}
		if got := reg.Gauge("warehouse.ds.partitions").Value(); got != gauge {
			t.Errorf("%s: partitions gauge moved %d → %d on a failed write", wr.name, gauge, got)
		}
		if err := wr.call(); err != nil {
			t.Fatalf("%s retried on a healthy store: %v", wr.name, err)
		}
		if got := inMemory(); !bytes.Equal(got, durable()) || bytes.Equal(got, before) {
			t.Errorf("%s: retry did not converge memory and manifest on a new catalog", wr.name)
		}
	}
	parts, _ := w.Partitions("ds")
	if want := []string{"a", "b", "d", "x", "onDisk"}; !reflect.DeepEqual(parts, want) {
		t.Fatalf("partitions after all writers = %v, want %v", parts, want)
	}
}

// FuzzLoadManifest: whatever bytes sit where the catalog should be, loading
// them, converting to records and back, and saving never panics, and a
// manifest that loads re-saves to bytes that load to the same records —
// saving those again changes nothing. Opening a warehouse over them never
// panics either.
func FuzzLoadManifest(f *testing.F) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, field := range strippedFields {
		f.Add(stripped(f, golden, field))
	}
	f.Add([]byte(`{"version":1,"datasets":{"d":{"algorithm":"HR","footprint_bytes":512,"partitions":["a","a"],"partition_sketches":{"a":null,"z":{}}}}}`))
	resave := func(t *testing.T, data []byte) ([]byte, bool) {
		st := storage.NewMemStore[int64]()
		if err := st.PutBlob(manifestName, data); err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(st)
		if err != nil {
			return nil, false
		}
		for name, md := range m.Datasets {
			md.setRecords(md.records())
			m.Datasets[name] = md
		}
		if err := saveManifestBlob(st, m); err != nil {
			t.Fatalf("a manifest that loaded does not save: %v", err)
		}
		return storedManifest(t, st), true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		saved, ok := resave(t, data)
		if !ok {
			return
		}
		again, ok := resave(t, saved)
		if !ok || !bytes.Equal(again, saved) {
			t.Fatalf("re-saved manifest is not a fixed point (loads: %v):\n%s\n---\n%s", ok, saved, again)
		}
		st := storage.NewMemStore[int64]()
		if err := st.PutBlob(manifestName, data); err != nil {
			t.Fatal(err)
		}
		_, _, _ = Open[int64](st, 1)
	})
}
