package warehouse

import (
	"context"
	"fmt"
	"sort"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// Sketch sidecars (DESIGN.md §15). Every int64 partition carries a compact
// mergeable summary (count, min/max, moments, KMV distinct, heavy hitters)
// next to its sample: built from the stream at roll-in when the ingest path
// provides one, derived from the sample otherwise, persisted in the
// manifest, backfilled lazily for pre-sketch partitions, and dropped on
// roll-out. The read path consults them to prove-prune partitions out of
// range queries and to answer distinct/topk from sketch unions instead of
// sample extrapolation.

// autoSketch derives a sample-sourced sidecar for int64 data sets; other
// value types have no sketch support and get nil (all sketch features
// degrade to the sample-only behavior).
func (w *Warehouse[V]) autoSketch(s *core.Sample[V]) *sketch.Summary {
	si, ok := any(s).(*core.Sample[int64])
	if !ok {
		return nil
	}
	w.o.sketchBuilds.Inc()
	return sketch.FromSample(si)
}

// setSketch records a partition's sidecar; nil drops it (value types without
// sketch support, or invalidation). Caller holds w.mu.
func (w *Warehouse[V]) setSketch(ds *dataset, partitionID string, sk *sketch.Summary) {
	if sk == nil {
		w.dropSketch(ds, partitionID)
		return
	}
	if ds.sketches == nil {
		ds.sketches = make(map[string]*sketch.Summary)
	}
	ds.sketches[partitionID] = sk
	w.sketchGauge()
}

// dropSketch forgets a rolled-out partition's sidecar. Caller holds w.mu.
func (w *Warehouse[V]) dropSketch(ds *dataset, partitionID string) {
	delete(ds.sketches, partitionID)
	w.sketchGauge()
}

// sketchGauge mirrors the sidecar count into
// warehouse.partition_sketch_entries. Caller holds w.mu.
func (w *Warehouse[V]) sketchGauge() {
	if w.o.reg == nil {
		return
	}
	var n int64
	for _, ds := range w.sets {
		n += int64(len(ds.sketches))
	}
	w.o.reg.Gauge("warehouse.partition_sketch_entries").Set(n)
}

// validSketch returns a usable sidecar or nil: corrupt or version-skewed
// summaries must never prune, so they read as absent (fsck reports them;
// the query path backfills over them).
func validSketch(sk *sketch.Summary) *sketch.Summary {
	if sk == nil || sk.Validate() != nil {
		return nil
	}
	return sk
}

// PartitionSketch returns a copy of one partition's sidecar; ok is false
// when the partition has none (pre-sketch manifest, non-int64 value type,
// or a corrupt entry awaiting backfill).
func (w *Warehouse[V]) PartitionSketch(dataset, partitionID string) (*sketch.Summary, bool, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return nil, false, unknownDataset(dataset)
	}
	sk := validSketch(ds.sketches[partitionID])
	if sk == nil {
		return nil, false, nil
	}
	return sk.Clone(), true, nil
}

// SketchSnapshot returns a copy of one data set's sidecar registry, keyed by
// partition ID. Only valid sidecars are included.
func (w *Warehouse[V]) SketchSnapshot(dataset string) (map[string]*sketch.Summary, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return nil, unknownDataset(dataset)
	}
	out := make(map[string]*sketch.Summary, len(ds.sketches))
	for id, sk := range ds.sketches {
		if v := validSketch(sk); v != nil {
			out[id] = v.Clone()
		}
	}
	return out, nil
}

// sketchSnapshotLocked copies the valid sidecars for a set of partitions.
// Caller holds w.mu (read or write).
func sketchSnapshotLocked(ds *dataset, ids []string) map[string]*sketch.Summary {
	out := make(map[string]*sketch.Summary, len(ids))
	for _, id := range ids {
		if sk := validSketch(ds.sketches[id]); sk != nil {
			out[id] = sk
		}
	}
	return out
}

// backfillSketches persists freshly built sidecars for partitions that were
// loaded anyway (pre-sketch manifests). Partitions rolled out since the
// snapshot are left alone.
func (w *Warehouse[V]) backfillSketches(dataset string, built map[string]*sketch.Summary) {
	if len(built) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return
	}
	attached := make(map[string]bool, len(ds.partitions))
	for _, p := range ds.partitions {
		attached[p] = true
	}
	n := 0
	for id, sk := range built {
		if !attached[id] || validSketch(ds.sketches[id]) != nil {
			continue
		}
		w.setSketch(ds, id, sk)
		n++
	}
	if n == 0 {
		return
	}
	w.o.sketchBackfills.Add(int64(n))
	// Best-effort persistence: a failed manifest write leaves the sidecars
	// in memory; the next catalog mutation or query retries.
	_ = w.saveManifest()
}

// DatasetSketch returns the merged sidecar of the named partitions (all
// partitions when none are named) — the summary a single pass over the
// covered union would have produced, up to heavy-hitter truncation. Missing
// sidecars are backfilled by loading the stored sample; the merged result
// is therefore SourceSample whenever any input was. Callers fall back to
// sample-based estimators when this errors (unreadable partition, non-int64
// value type).
func (w *Warehouse[V]) DatasetSketch(ctx context.Context, dataset string, partitionIDs ...string) (*sketch.Summary, error) {
	q := query[V]{op: "sketch", dataset: dataset, ids: partitionIDs}
	v, err := w.resolve(&q, true)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, id := range v.ids {
		if v.sketches[id] == nil {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		// The load stage rebuilds (and persists) the sidecar of every
		// partition it loads that lacks one.
		var cov MergeCoverage
		if _, err := w.loadWave(ctx, obs.SpanFromContext(ctx), &q, &v, missing, &cov); err != nil {
			return nil, err
		}
	}
	ordered := make([]*sketch.Summary, len(v.ids))
	for i, id := range v.ids {
		if ordered[i] = v.sketches[id]; ordered[i] == nil {
			return nil, fmt.Errorf("warehouse: sketch %s: value type has no sketch support", dataset)
		}
	}
	w.o.sketchUnions.Inc()
	return sketch.MergeAll(ordered...), nil
}

// SketchFsckReport summarizes one sidecar audit (swcli fsck's sketch pass).
// Entries are "dataset/partition" keys.
type SketchFsckReport struct {
	Checked int
	// Missing partitions have no sidecar in the manifest; Stale sidecars
	// disagree with the partition's registry stats or carry an old format
	// version; Corrupt sidecars fail validation.
	Missing []string
	Stale   []string
	Corrupt []string
	// Fixed lists partitions whose sidecar was rebuilt from the stored
	// sample (-fix); rebuilt entries remain listed under their problem.
	Fixed []string
}

// Problems counts the sidecar defects found.
func (r *SketchFsckReport) Problems() int {
	return len(r.Missing) + len(r.Stale) + len(r.Corrupt)
}

// FsckSketches audits the manifest's sketch sidecars against the partition
// registry, reporting missing, stale (format-version or population skew),
// and corrupt entries. With fix set it rebuilds defective sidecars from the
// stored samples and rewrites the manifest. It operates on the durable
// manifest directly — not on a live warehouse — matching fsck's offline
// contract. A store without a manifest yields an empty report.
func FsckSketches(store storage.Store[int64], fix bool) (*SketchFsckReport, error) {
	blob, ok := store.(storage.BlobStore)
	if !ok {
		return nil, fmt.Errorf("warehouse: fsck sketches: store has no blob support: %w", storage.ErrBlobsUnsupported)
	}
	m, err := loadManifest(blob)
	if err != nil {
		return nil, err
	}
	rep := &SketchFsckReport{}
	names := make([]string, 0, len(m.Datasets))
	for name := range m.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	changed := false
	for _, name := range names {
		md := m.Datasets[name]
		for _, p := range md.Partitions {
			rep.Checked++
			key := name + "/" + p
			sk := md.Sketches[p]
			problem := ""
			switch {
			case sk == nil:
				problem = "missing"
				rep.Missing = append(rep.Missing, key)
			case sk.Version != sketch.Version:
				problem = "stale"
				rep.Stale = append(rep.Stale, key)
			case sk.Validate() != nil:
				problem = "corrupt"
				rep.Corrupt = append(rep.Corrupt, key)
			default:
				if st, ok := md.Stats[p]; ok && sk.Count != st.ParentSize {
					problem = "stale"
					rep.Stale = append(rep.Stale, key)
				}
			}
			if problem == "" || !fix {
				continue
			}
			s, err := store.Get(key)
			if err != nil {
				// The sample itself is unreadable; the main fsck passes own
				// that problem — leave the sidecar defect reported.
				continue
			}
			if md.Sketches == nil {
				md.Sketches = make(map[string]*sketch.Summary)
				m.Datasets[name] = md
			}
			md.Sketches[p] = sketch.FromSample(s)
			rep.Fixed = append(rep.Fixed, key)
			changed = true
		}
	}
	if changed {
		if err := saveManifestBlob(blob, m); err != nil {
			return rep, err
		}
	}
	sort.Strings(rep.Missing)
	sort.Strings(rep.Stale)
	sort.Strings(rep.Corrupt)
	sort.Strings(rep.Fixed)
	return rep, nil
}
