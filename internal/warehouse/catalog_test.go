package warehouse

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
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

// TestBothWritersAgree: the same sample bytes entering the catalog by RollIn
// and by ExportPartition→AdoptPartition go through one install, so every
// accessor, gauge and event agrees; only the lifecycle counter (rollins vs
// attaches) and the event's mode label name the writer.
func TestBothWritersAgree(t *testing.T) {
	rolled, adopted := newWriterFixture(t), newWriterFixture(t)

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

	want := rolled.facts(t)
	if len(want.Partitions) != 1 || len(want.Stats) != 1 || len(want.Sketches) != 1 ||
		want.Hashes["p"] != tr.Hash || want.Gauges != [3]int64{1, 1, 1} || len(want.Events) != 1 {
		t.Fatalf("roll-in left %+v", want)
	}
	if got := adopted.facts(t); !reflect.DeepEqual(got, want) {
		t.Errorf("adopt:\n got %+v\nwant %+v", got, want)
	}
	for _, e := range adopted.sink.Events() {
		if e.Type == obs.EvRollIn && e.Labels["mode"] != "adopt" {
			t.Errorf("adopt roll_in event labels %v", e.Labels)
		}
	}
	for _, c := range []struct {
		f                          *writerFixture
		rollins, attaches, sketchs int64
	}{
		{rolled, 1, 0, 1},
		{adopted, 0, 1, 0}, // the sidecar travelled with the bytes: nothing built
	} {
		got := [3]int64{c.f.reg.Counter("warehouse.rollins").Value(), c.f.reg.Counter("warehouse.attaches").Value(),
			c.f.reg.Counter("sketch.builds").Value()}
		if got != [3]int64{c.rollins, c.attaches, c.sketchs} {
			t.Errorf("rollins, attaches, sketch.builds = %v, want %v", got, [3]int64{c.rollins, c.attaches, c.sketchs})
		}
	}
}

// blobFault fails, while on, the catalog writes hit selects: the manifest
// put, a sidecar put, or a sidecar delete.
type blobFault struct {
	on  atomic.Bool
	hit func(op faults.Op, key string) bool
}

var errBlob = errors.New("catalog disk full")

func (b *blobFault) Decide(op faults.Op, _ int64, key string) faults.Fault {
	if b.on.Load() && b.hit(op, key) {
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

// PutSample puts through the injector, so the sample put stays faultable.
func (s rawFaultStore) PutSample(key string, smp *core.Sample[int64]) ([]byte, error) {
	if err := s.Store.Put(key, smp); err != nil {
		return nil, err
	}
	return s.mem.GetRaw(key)
}

// sidecarsAgree: every sidecar w holds validates and describes the sample
// stored beside it — the partition's row count, and bounds that bracket every
// sampled value. A partition may have none; one whose sample is gone (a
// roll-out that could not commit) has nothing to disagree with.
func sidecarsAgree(t *testing.T, when string, w *Warehouse[int64]) {
	t.Helper()
	parts, _ := w.Partitions("ds")
	for _, id := range parts {
		sk, ok, err := partitionSketch(w, "ds", id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := w.PartitionSampleContext(bg, "ds", id)
		if !ok || err != nil {
			continue
		}
		if sk.Validate() != nil || sk.Count != s.ParentSize {
			t.Errorf("%s: sidecar of %s covers %d rows (validate: %v), its sample's parent is %d",
				when, id, sk.Count, sk.Validate(), s.ParentSize)
		}
		s.Hist.Each(func(v, _ int64) {
			if v < sk.Min || v > sk.Max {
				t.Errorf("%s: sidecar of %s spans [%d, %d], its sample holds %d", when, id, sk.Min, sk.Max, v)
			}
		})
	}
}

// checkReopened opens a second warehouse over a copy of mem, as a process
// restarted at this point would, and holds it to the sidecar contract: a
// loaded sidecar validates and describes the sample stored beside it, an
// absent one is rebuilt by the first sketch-assisted query.
func checkReopened(t *testing.T, when string, mem *storage.MemStore[int64], ids []string) {
	t.Helper()
	cp := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
	keys, _ := mem.Keys("")
	for _, k := range keys {
		raw, err := mem.GetRaw(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.PutRaw(k, raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range append([]string{manifestName}, ids...) {
		if data, err := mem.GetBlob(name); err == nil {
			if err := cp.PutBlob(name, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, _, err := Open[int64](cp, 6)
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	sidecarsAgree(t, when+", reopened", w)
	parts, _ := w.Partitions("ds")
	if _, err := w.DatasetSketch(context.Background(), "ds"); err != nil {
		t.Fatalf("%s: sketch union after reopen: %v", when, err)
	}
	if sks, _ := w.SketchSnapshot("ds"); len(sks) != len(parts) {
		t.Errorf("%s: %d of %d sidecars after a sketch-assisted query, want all backfilled", when, len(sks), len(parts))
	}
}

// TestFailedPersistLeavesCatalogAtLastManifest: whichever catalog write
// fails — the record's sidecar, the manifest, a rolled-out sidecar's delete —
// every catalog writer returns with the in-memory catalog equal to the last
// manifest that was written: a new partition is not listed, a replaced one
// keeps its old record, a rolled-out one is still there. A process restarted
// at that point finds no sidecar that is wrong about its sample, and the same
// call converges once the store recovers.
func TestFailedPersistLeavesCatalogAtLastManifest(t *testing.T) {
	for _, fc := range []struct {
		name   string
		hit    func(op faults.Op, key string) bool
		breaks func(writer string) bool
	}{
		{"manifest put", func(op faults.Op, key string) bool { return op == faults.OpPutBlob && key == manifestName },
			func(string) bool { return true }},
		{"sidecar put", func(op faults.Op, key string) bool { return op == faults.OpPutBlob && key != manifestName },
			func(writer string) bool { return writer != "RollOut" }},
		{"sidecar delete", func(op faults.Op, _ string) bool { return op == faults.OpDeleteBlob },
			func(writer string) bool { return writer == "RollOut" || strings.HasSuffix(writer, " replace") }},
	} {
		t.Run(fc.name, func(t *testing.T) {
			mem := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
			fault := &blobFault{hit: fc.hit}
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
			sidecars := []string{"ds/a", "ds/b", "ds/c", "ds/d", "ds/x"}

			inMemory := func() []byte {
				w.mu.Lock()
				defer w.mu.Unlock()
				m, err := w.buildManifest(nil)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.MarshalIndent(m, "", "  ")
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
				{"RollOut", func() error { return w.RollOut("ds", "c") }},
			}
			for _, wr := range writers {
				before := durable()
				gauge := reg.Gauge("warehouse.ds.partitions").Value()
				fault.on.Store(true)
				err := wr.call()
				fault.on.Store(false)
				if !fc.breaks(wr.name) {
					if err != nil {
						t.Fatalf("%s does not touch a failing %s: err = %v", wr.name, fc.name, err)
					}
					if got := inMemory(); !bytes.Equal(got, durable()) || bytes.Equal(got, before) {
						t.Errorf("%s: memory and manifest did not move together", wr.name)
					}
					checkReopened(t, wr.name, mem, sidecars)
					continue
				}
				if !errors.Is(err, errBlob) {
					t.Fatalf("%s with a failing %s: err = %v", wr.name, fc.name, err)
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
				sidecarsAgree(t, wr.name+" failed", w)
				checkReopened(t, wr.name+" failed", mem, sidecars)
				if err := wr.call(); err != nil {
					t.Fatalf("%s retried on a healthy store: %v", wr.name, err)
				}
				if got := inMemory(); !bytes.Equal(got, durable()) || bytes.Equal(got, before) {
					t.Errorf("%s: retry did not converge memory and manifest on a new catalog", wr.name)
				}
				checkReopened(t, wr.name+" retried", mem, sidecars)
			}
			parts, _ := w.Partitions("ds")
			if want := []string{"a", "b", "d", "x"}; !reflect.DeepEqual(parts, want) {
				t.Fatalf("partitions after all writers = %v, want %v", parts, want)
			}
			// Every listed partition ends with its sidecar stored, and the
			// rolled-out one's is gone.
			for _, key := range sidecars {
				sk := loadSidecar(mem, key)
				if key == "ds/c" {
					if sk != nil {
						t.Errorf("rolled-out %s still has a sidecar stored", key)
					}
				} else if sk == nil || sk.Validate() != nil {
					t.Errorf("%s ends without a usable stored sidecar: %+v", key, sk)
				}
			}
		})
	}
}

// FuzzLoadManifest: whatever bytes sit where the catalog should be — over a
// store that holds the golden build's sidecar blobs, so a manifest may find
// its sidecars inline, beside the samples, or both — loading them, converting
// to records and back, and saving never panics, and a manifest that loads
// re-saves to bytes that load to the same records: saving those again changes
// neither the manifest nor a sidecar. Opening a warehouse over them never
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
	// Mixed: d3 and c1 are read from their blobs, the rest inline — one of
	// them unusable.
	var mixed manifest
	if err := json.Unmarshal(golden, &mixed); err != nil {
		f.Fatal(err)
	}
	delete(mixed.Datasets["orders"].Sketches, "d3")
	delete(mixed.Datasets["clicks"].Sketches, "c1")
	mixed.Datasets["orders"].Sketches["d4"].Version = 99
	data, err := json.Marshal(mixed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	goldenSt, _ := goldenStore(f)
	blobs := storedSidecars(f, goldenSt)

	resave := func(t *testing.T, st *storage.MemStore[int64], data []byte) ([]byte, bool) {
		if err := st.PutBlob(manifestName, data); err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(st)
		if err != nil {
			return nil, false
		}
		for name, md := range m.Datasets {
			if err := md.setRecords(st, name, md.records(st, name)); err != nil {
				t.Fatalf("a manifest that loaded does not save its sidecars: %v", err)
			}
			m.Datasets[name] = md
		}
		if err := saveManifestBlob(st, m); err != nil {
			t.Fatalf("a manifest that loaded does not save: %v", err)
		}
		return storedManifest(t, st), true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newStore := func() *storage.MemStore[int64] {
			st := storage.NewMemStore[int64]()
			for key, sk := range blobs {
				if err := st.PutBlob(key, []byte(sk)); err != nil {
					t.Fatal(err)
				}
			}
			return st
		}
		st := newStore()
		saved, ok := resave(t, st, data)
		if !ok {
			return
		}
		if bytes.Contains(saved, []byte("partition_sketches")) {
			t.Fatalf("a sidecar was written into the manifest:\n%s", saved)
		}
		sidecars := storedSidecars(t, st)
		again, ok := resave(t, st, saved)
		if !ok || !bytes.Equal(again, saved) || !reflect.DeepEqual(storedSidecars(t, st), sidecars) {
			t.Fatalf("re-saved catalog is not a fixed point (loads: %v):\n%s\n---\n%s", ok, saved, again)
		}
		st = newStore()
		if err := st.PutBlob(manifestName, data); err != nil {
			t.Fatal(err)
		}
		_, _, _ = Open[int64](st, 1)
	})
}
