package warehouse

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/sketch"
)

// partition is the catalog's one record per attached partition: everything
// the warehouse knows about a partition without reading its sample. Samples
// roll in and out as partitions do, and so does this record: install writes
// it, remove drops it, manifest.go's records, setRecords and saveSidecars
// persist it (DESIGN.md §17).
type partition struct {
	id string
	// stats are the planner's statistics (stats.go), captured when the sample
	// is in hand. known is false only for partitions loaded from a manifest
	// that predates the registry, until a bounded query backfills them.
	stats PartitionStats
	known bool
	// sketch is the summary sidecar (sketches.go); nil for value types without
	// sketch support and for partitions whose stored sidecar is missing or
	// unusable, until a query backfills it. sketchUnsaved marks a sidecar the
	// store's blob for this partition does not hold yet: the next catalog
	// write sends it (saveSidecars) and no other.
	sketch        *sketch.Summary
	sketchUnsaved bool
	// hash seals the stored sample bytes for anti-entropy (antientropy.go);
	// "" when the manifest predates hashes.
	hash string
	// ewmaNS is the load-latency EWMA as the manifest last carried it. The
	// loader owns the live value (it moves on every fetch, outside w.mu);
	// this field only ferries it through a manifest read or write.
	ewmaNS int64
}

// dataset is one data set's configuration and its partition records in
// roll-in order, indexed by ID.
type dataset struct {
	cfg   DatasetConfig
	parts []*partition
	byID  map[string]*partition
}

// upsert writes one record: a known ID is replaced in its slot (a re-rolled
// partition keeps its place in the window order), a new one is appended. It
// returns the record it replaced, if any, so a failed persist can put it back.
func (ds *dataset) upsert(rec partition) (prev partition, replaced bool) {
	if p, ok := ds.byID[rec.id]; ok {
		prev, *p = *p, rec
		return prev, true
	}
	ds.insert(len(ds.parts), rec)
	return partition{}, false
}

// insert places a record whose ID the catalog does not hold at slot idx.
func (ds *dataset) insert(idx int, rec partition) {
	if ds.byID == nil {
		ds.byID = make(map[string]*partition)
	}
	ds.parts = slices.Insert(ds.parts, idx, &rec)
	ds.byID[rec.id] = &rec
}

// remove drops one record, returning it and the slot it held (-1 when the ID
// is not in the catalog) — a partition rolled out, found dangling by Recover,
// or installed but never persisted.
func (ds *dataset) remove(id string) (partition, int) {
	p, ok := ds.byID[id]
	if !ok {
		return partition{}, -1
	}
	idx := slices.Index(ds.parts, p)
	ds.parts = slices.Delete(ds.parts, idx, idx+1)
	delete(ds.byID, id)
	return *p, idx
}

// ids returns the partition IDs in roll-in order.
func (ds *dataset) ids() []string {
	out := make([]string, len(ds.parts))
	for i, p := range ds.parts {
		out[i] = p.id
	}
	return out
}

// snapshot is the accessor behind every per-partition view of a data set
// (statistics, sidecars, content hashes): it copies one fact per record
// under the read lock, skipping records pick has nothing for.
func snapshot[V cmp.Ordered, T any](w *Warehouse[V], dataset string, pick func(*partition) (T, bool)) (map[string]T, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return nil, unknownDataset(dataset)
	}
	out := make(map[string]T, len(ds.parts))
	for _, p := range ds.parts {
		if v, ok := pick(p); ok {
			out[p.id] = v
		}
	}
	return out, nil
}

func checkPartitionID(id string) error {
	if id == "" || strings.ContainsAny(id, "/") {
		return fmt.Errorf("warehouse: invalid partition id %q", id)
	}
	return nil
}

// The two ways a partition's sample reaches the catalog. The op names the
// writer in errors and events and decides how the bytes reach the store; both
// replace a known ID and seal what they stored.
const (
	opRollIn = "roll-in" // encode s and put it
	opAdopt  = "adopt"   // put the transferred bytes verbatim
)

// install is the one write path into the catalog (DESIGN.md §17):
// validate → put → invalidate → upsert → persist → account. raw is the
// encoded sample when the caller has it (adopt); sk is a sidecar the caller
// brings (stream-built or transferred, already validated and cloned) or nil
// to derive one from the sample, beside the put. Persist is this record's
// sidecar blob, then the manifest. When either cannot be saved the previous
// record (or none) is restored, so after any return the in-memory catalog
// equals the last manifest written; the stored bytes may then be ahead of
// their seal — never beside a sidecar that describes other bytes — which a
// retry, or fsck, converges.
func (w *Warehouse[V]) install(op, dataset, id string, s *core.Sample[V], raw []byte, sk *sketch.Summary) error {
	if err := checkPartitionID(id); err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("warehouse: %s %s/%s: nil sample", op, dataset, id)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("warehouse: %s %s/%s: sample invalid: %w", op, dataset, id, err)
	}
	key := w.key(dataset, id)
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return unknownDataset(dataset)
	}
	if s.Config.FootprintBytes != ds.cfg.Core.FootprintBytes || s.Config.SizeModel != ds.cfg.Core.SizeModel {
		return fmt.Errorf("warehouse: %s %s/%s: sample config %+v does not match data set config %+v",
			op, dataset, id, s.Config, ds.cfg.Core)
	}
	if ds.byID[id] != nil {
		// A replaced partition's sidecar goes before its bytes change. Until
		// the new one is put the partition has none, which reads as absent
		// and is rebuilt on demand; the old one beside the new bytes would
		// read as a proof about them.
		if err := w.deleteSidecar(key); err != nil {
			w.o.fail(op, dataset, id, err)
			return err
		}
	}
	// A sidecar the writer did not bring is built beside the put. Put into
	// the stored order first, the sample is only read from here on.
	if op == opRollIn {
		s.Hist.Sort()
	}
	var built chan *sketch.Summary
	if sk == nil {
		built = make(chan *sketch.Summary, 1)
		go func() { built <- w.autoSketch(s) }()
	} else if op == opRollIn {
		w.o.sketchBuilds.Inc() // stream-built; an adopted sidecar was built elsewhere
	}
	var err error
	switch op {
	case opRollIn:
		raw, err = w.store.PutSample(key, s) // the bytes it wrote seal the record
	case opAdopt:
		err = w.store.PutRaw(key, raw)
	}
	if built != nil {
		sk = <-built
	}
	if err != nil {
		err = fmt.Errorf("warehouse: %s %s/%s: %w", op, dataset, id, err)
		w.o.fail(op, dataset, id, err)
		return err
	}
	w.ld.invalidate(key)

	rec := partition{id: id, stats: statsOf(s), known: true, sketch: sk, sketchUnsaved: true,
		hash: contentHash(raw, sk)}
	prev, replaced := ds.upsert(rec)
	if err := w.saveManifest(); err != nil {
		if replaced {
			// The old record comes back without its sidecar, which describes
			// the bytes that were just replaced.
			prev.sketch = nil
			ds.upsert(prev)
			w.gauges()
		} else {
			ds.remove(id)
		}
		return err
	}

	var labels map[string]string
	if op == opRollIn {
		w.o.rollIns.Inc()
		w.o.rollInSize.Observe(s.Size())
	} else {
		w.o.attaches.Inc()
		labels = map[string]string{"mode": op}
	}
	w.gauges()
	w.o.event(obs.EvRollIn, dataset, id, labels, map[string]int64{
		"sample_size": s.Size(),
		"parent_size": s.ParentSize,
		"footprint":   s.Footprint(),
	})
	return nil
}

// backfill repairs catalog records from samples the load stage had in hand
// (manifests written before a registry existed): each fix carries the planner
// statistics a bounded query planned without, the sidecar a sketch-assisted
// query found missing, or both. Partitions rolled out since the query's
// snapshot are left alone. Rebuilt sidecars are persisted best-effort right
// away — a failed manifest write leaves them in memory for the next catalog
// write — and statistics ride along with that write.
func (w *Warehouse[V]) backfill(dataset string, fixes []partition) {
	if len(fixes) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return
	}
	var stats, sketches int64
	for _, fix := range fixes {
		p := ds.byID[fix.id]
		if p == nil {
			continue
		}
		if fix.known {
			p.stats, p.known = fix.stats, true
			stats++
		}
		if fix.sketch != nil && validSketch(p.sketch) == nil {
			p.sketch, p.sketchUnsaved = fix.sketch, true
			sketches++
		}
	}
	w.o.statBackfills.Add(stats)
	w.o.sketchBackfills.Add(sketches)
	w.gauges()
	if sketches > 0 {
		_ = w.saveManifest()
	}
}

// gauges mirrors the catalog into the registry: partitions per data set, and
// how many records carry planner statistics and sidecars (operators watch
// those two against the partition counts for registry freshness). Caller
// holds w.mu.
func (w *Warehouse[V]) gauges() {
	if w.o.reg == nil {
		return
	}
	var stats, sketches int64
	for name, ds := range w.sets {
		for _, p := range ds.parts {
			if p.known {
				stats++
			}
			if p.sketch != nil {
				sketches++
			}
		}
		w.o.reg.Gauge("warehouse." + name + ".partitions").Set(int64(len(ds.parts)))
	}
	w.o.reg.Gauge("warehouse.partition_stats_entries").Set(stats)
	w.o.reg.Gauge("warehouse.partition_sketch_entries").Set(sketches)
}
