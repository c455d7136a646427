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
// provides one, derived from the sample otherwise, persisted as one blob per
// partition beside the sample (manifest.go), backfilled lazily where that
// blob is missing or unusable, and deleted on roll-out. The read path
// consults them to prove-prune partitions out of range queries and to answer
// distinct/topk from sketch unions instead of sample extrapolation.

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

// deleteSidecar removes one partition's sidecar blob — rolled out, found
// dangling by Recover, or about to have its sample replaced. It is a no-op on
// ephemeral warehouses. Callers hold w.mu.
func (w *Warehouse[V]) deleteSidecar(key string) error {
	if w.blob == nil {
		return nil
	}
	if err := w.blob.DeleteBlob(key); err != nil {
		return fmt.Errorf("warehouse: delete sidecar %s: %w", key, err)
	}
	return nil
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
	if p := ds.byID[partitionID]; p != nil && validSketch(p.sketch) != nil {
		return p.sketch.Clone(), true, nil
	}
	return nil, false, nil
}

// SketchSnapshot returns a copy of one data set's sidecar registry, keyed by
// partition ID. Only valid sidecars are included.
func (w *Warehouse[V]) SketchSnapshot(dataset string) (map[string]*sketch.Summary, error) {
	return snapshot(w, dataset, func(p *partition) (*sketch.Summary, bool) {
		if validSketch(p.sketch) == nil {
			return nil, false
		}
		return p.sketch.Clone(), true
	})
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
	// Missing partitions have no sidecar in the store; Stale sidecars
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

// FsckSketches audits the stored sketch sidecars against the partition
// registry, reporting missing (no blob, or one that does not decode), stale
// (format-version or population skew), and corrupt entries. With fix set it
// rebuilds defective sidecars from the stored samples and writes those blobs
// back (see fsckCatalog). A store without a manifest yields an empty report.
func FsckSketches(store storage.Store[int64], fix bool) (*SketchFsckReport, error) {
	rep := &SketchFsckReport{}
	err := fsckCatalog(store, "sketches", func(key string, p *partition) fsckVerdict {
		rep.Checked++
		switch sk := p.sketch; {
		case sk == nil:
			rep.Missing = append(rep.Missing, key)
		case sk.Version != sketch.Version:
			rep.Stale = append(rep.Stale, key)
		case sk.Validate() != nil:
			rep.Corrupt = append(rep.Corrupt, key)
		case p.known && sk.Count != p.stats.ParentSize:
			rep.Stale = append(rep.Stale, key)
		default:
			return fsckKeep
		}
		if !fix {
			return fsckKeep
		}
		s, err := store.Get(key)
		if err != nil {
			// The sample itself is unreadable; the main fsck passes own that
			// problem — leave the sidecar defect reported.
			return fsckKeep
		}
		p.sketch, p.sketchUnsaved = sketch.FromSample(s), true
		rep.Fixed = append(rep.Fixed, key)
		return fsckRepaired
	})
	sort.Strings(rep.Missing)
	sort.Strings(rep.Stale)
	sort.Strings(rep.Corrupt)
	sort.Strings(rep.Fixed)
	return rep, err
}
