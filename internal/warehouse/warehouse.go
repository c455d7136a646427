// Package warehouse implements the sample data warehouse of the paper's
// Figure 1: a catalog of data sets, each divided into partitions D_{i,j}
// (stream i, temporal slice j, or any other disjoint decomposition), with a
// compact uniform sample S_{i,j} stored per partition. Partition samples are
// rolled in as new data arrives and rolled out as old data expires, and the
// warehouse can produce, on demand, a statistically uniform sample of the
// union of any subset K of partitions — the paper's S_K.
package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/samplecache"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// Algorithm selects the sampling/merge family for a data set.
type Algorithm uint8

const (
	// AlgHB: Algorithm HB samples and HBMerge merging (fast merges; needs
	// expected partition sizes).
	AlgHB Algorithm = iota + 1
	// AlgHR: Algorithm HR samples and HRMerge merging (stable sample
	// sizes; no advance size knowledge needed).
	AlgHR
	// AlgSB: fixed-rate stratified Bernoulli (the unbounded-footprint
	// baseline).
	AlgSB
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgHB:
		return "HB"
	case AlgHR:
		return "HR"
	case AlgSB:
		return "SB"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Sentinel errors callers match with errors.Is. Each is wrapped with its
// coordinates at the point of failure; the swd server maps them to HTTP
// statuses in one place.
var (
	ErrUnknownDataset       = errors.New("unknown data set")
	ErrDatasetExists        = errors.New("already exists")
	ErrNoPartitions         = errors.New("has no partitions")
	ErrNoReadablePartitions = errors.New("no readable partitions")
	ErrDuplicatePartition   = errors.New("duplicate partition")
)

func unknownDataset(name string) error {
	return fmt.Errorf("warehouse: %w %q", ErrUnknownDataset, name)
}

// DatasetConfig describes one data set's sampling regime.
type DatasetConfig struct {
	// Algorithm selects the sampler/merge family. Zero selects AlgHR, the
	// most robust default (no advance knowledge of partition sizes).
	Algorithm Algorithm
	// Core carries the footprint bound and statistical parameters.
	Core core.Config
	// SBRate is the fixed Bernoulli rate for AlgSB data sets.
	SBRate float64
}

// normalized fills defaults.
func (c DatasetConfig) normalized() (DatasetConfig, error) {
	if c.Algorithm == 0 {
		c.Algorithm = AlgHR
	}
	switch c.Algorithm {
	case AlgHB, AlgHR:
	case AlgSB:
		if c.SBRate <= 0 || c.SBRate > 1 {
			return c, fmt.Errorf("warehouse: SB rate %v outside (0,1]", c.SBRate)
		}
	default:
		return c, fmt.Errorf("warehouse: invalid algorithm %v", c.Algorithm)
	}
	if err := c.Core.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// PartitionInfo summarizes one stored partition sample.
type PartitionInfo struct {
	ID         string
	Kind       core.Kind
	SampleSize int64
	ParentSize int64
	Footprint  int64
}

// Warehouse is the sample warehouse, generic over the sampled value type.
// It is safe for concurrent use. The paper's evaluation uses int64 values;
// any comparable value type with a Store implementation works.
type Warehouse[V comparable] struct {
	mu    sync.RWMutex
	store storage.Store[V]
	// blob, when non-nil, is the side channel making the catalog durable:
	// every catalog mutation rewrites the manifest through it, after the one
	// sidecar blob that changed. New leaves it nil (ephemeral catalog); Open
	// sets it.
	blob storage.BlobStore
	rng  *randx.RNG
	sets map[string]*dataset
	// ld is the read-path fetch layer: bounded-concurrency store loads with
	// singleflight dedup and the optional read-through sample cache.
	ld *loader[V]
	// mergeWorkers is the resolved QueryConfig.MergeWorkers (0 = GOMAXPROCS,
	// applied at merge time).
	mergeWorkers int
	o            whObs
}

// New creates a warehouse over the given store, seeding all merge
// randomness from seed. The catalog (data set configs and partition lists)
// lives only in memory; use Open for a catalog that survives restarts.
func New[V comparable](store storage.Store[V], seed uint64) *Warehouse[V] {
	return &Warehouse[V]{
		store: store,
		rng:   randx.New(seed),
		sets:  make(map[string]*dataset),
		ld:    newLoader(store),
	}
}

// SetQueryConfig applies read-path tuning: the decoded-sample cache budget,
// the partition-load worker bound, and the merge parallelism (see QueryConfig
// and DESIGN.md §9). The zero QueryConfig restores the defaults (caching
// disabled). Any existing cache contents are discarded.
func (w *Warehouse[V]) SetQueryConfig(cfg QueryConfig) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mergeWorkers = cfg.MergeWorkers
	w.ld.configure(cfg, w.o.reg)
}

// CacheStats returns the read-path sample cache counters (all zero while
// caching is disabled).
func (w *Warehouse[V]) CacheStats() samplecache.Stats {
	return w.ld.stats()
}

// Instrument routes the warehouse's metrics and events into reg: partition
// lifecycle counters, merge latency, per-dataset partition gauges, and
// samplers handed out by NewSampler. A nil registry reverts to the no-op
// state. Instrument the underlying store separately (stores are shared
// resources the warehouse does not own).
func (w *Warehouse[V]) Instrument(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.o = newWHObs(reg)
	w.ld.instrument(reg)
	// A registry attached after partitions were rolled in starts from the
	// catalog's current state rather than zero.
	w.gauges()
}

// CreateDataset registers a data set. It errors if the name is empty,
// contains '/', or already exists.
func (w *Warehouse[V]) CreateDataset(name string, cfg DatasetConfig) error {
	if name == "" || strings.ContainsAny(name, "/") {
		return fmt.Errorf("warehouse: invalid data set name %q", name)
	}
	norm, err := cfg.normalized()
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sets[name]; ok {
		return fmt.Errorf("warehouse: data set %q %w", name, ErrDatasetExists)
	}
	w.sets[name] = &dataset{cfg: norm}
	if err := w.saveManifest(); err != nil {
		delete(w.sets, name)
		return err
	}
	return nil
}

// Datasets returns the registered data set names, sorted.
func (w *Warehouse[V]) Datasets() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	names := make([]string, 0, len(w.sets))
	for n := range w.sets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Config returns a data set's configuration.
func (w *Warehouse[V]) Config(dataset string) (DatasetConfig, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return DatasetConfig{}, unknownDataset(dataset)
	}
	return ds.cfg, nil
}

// NewSampler returns a fresh sampler for one partition of the data set,
// configured per the data set's algorithm. expectedN is required for AlgHB
// (ignored otherwise). The caller feeds the partition's values through it
// and passes the finalized sample to RollIn.
func (w *Warehouse[V]) NewSampler(dataset string, expectedN int64) (core.Sampler[V], error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return nil, unknownDataset(dataset)
	}
	return w.newSamplerLocked(ds, expectedN, w.rng.Split())
}

// newSamplerLocked builds a sampler for ds drawing randomness from src — the
// shared tail of NewSampler (warehouse-seeded) and NewPartitionSampler
// (deterministically partition-seeded; see antientropy.go). Caller holds w.mu.
func (w *Warehouse[V]) newSamplerLocked(ds *dataset, expectedN int64, src *randx.RNG) (core.Sampler[V], error) {
	var smp core.Sampler[V]
	switch ds.cfg.Algorithm {
	case AlgHB:
		if expectedN < 1 {
			return nil, fmt.Errorf("warehouse: AlgHB requires expectedN >= 1, got %d", expectedN)
		}
		smp = core.NewHB[V](ds.cfg.Core, expectedN, src)
	case AlgHR:
		smp = core.NewHR[V](ds.cfg.Core, src)
	case AlgSB:
		smp = core.NewSB[V](ds.cfg.Core, ds.cfg.SBRate, src)
	default:
		return nil, fmt.Errorf("warehouse: invalid algorithm %v", ds.cfg.Algorithm)
	}
	if w.o.reg != nil {
		if in, ok := smp.(instrumentable); ok {
			// The partition ID is only chosen at RollIn time, so the sampler
			// events carry just the component name.
			in.Instrument(w.o.reg, "")
		}
	}
	return smp, nil
}

// RollIn stores the finalized sample of a new partition. Partitions are kept
// in roll-in order for windowing. RollIn is idempotent: rolling the same
// partition ID in again replaces its sample and keeps its original position,
// so a client retrying after a crash or timeout converges instead of
// erroring. The sample is handed over: a store that encodes puts its entries
// into value order in place (storage.Store.Put), and everything recorded
// about the partition is derived from that order.
func (w *Warehouse[V]) RollIn(dataset, partitionID string, s *core.Sample[V]) error {
	return w.install(opRollIn, dataset, partitionID, s, nil, nil)
}

// RollInSketched is RollIn with a stream-built sketch sidecar: the ingest
// path fed every partition value through a sketch.Builder next to the
// sampler, so the sidecar's facts are exact over the full partition rather
// than derived from the sample. The sketch must summarize exactly the
// partition (Count == s.ParentSize); its Exhaustive flag is stamped from
// the sample's kind. A nil sketch falls back to RollIn's sample-derived
// sidecar.
func (w *Warehouse[V]) RollInSketched(dataset, partitionID string, s *core.Sample[V], sk *sketch.Summary) error {
	if sk != nil {
		if err := sk.Validate(); err != nil {
			return fmt.Errorf("warehouse: roll-in sketch invalid: %w", err)
		}
		if s != nil && sk.Count != s.ParentSize {
			return fmt.Errorf("warehouse: roll-in sketch covers %d rows, sample parent is %d",
				sk.Count, s.ParentSize)
		}
		sk = sk.Clone()
		sk.Exhaustive = s != nil && s.Kind == core.Exhaustive
	}
	return w.install(opRollIn, dataset, partitionID, s, nil, sk)
}

// RollOut removes a partition's sample (e.g. when the corresponding data
// expires from the full-scale warehouse). Rolling out a partition the data
// set does not hold is a no-op, so a client retrying a crashed roll-out
// converges instead of erroring; the data set itself must exist.
func (w *Warehouse[V]) RollOut(dataset, partitionID string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return unknownDataset(dataset)
	}
	if ds.byID[partitionID] == nil {
		return nil
	}
	key := w.key(dataset, partitionID)
	if err := w.store.Delete(key); err != nil {
		err = fmt.Errorf("warehouse: roll-out %s/%s: %w", dataset, partitionID, err)
		w.o.fail("roll-out", dataset, partitionID, err)
		return err
	}
	w.ld.invalidate(key)
	if err := w.deleteSidecar(key); err != nil {
		w.o.fail("roll-out", dataset, partitionID, err)
		return err
	}
	rec, idx := ds.remove(partitionID)
	if err := w.saveManifest(); err != nil {
		// Same policy as install: memory never runs ahead of the manifest. The
		// record now dangles (its sample is gone) exactly as the durable one
		// does; a retried roll-out, or Recover, drops both.
		ds.insert(idx, rec)
		return err
	}
	w.ld.dropEWMA(key)
	w.o.rollOuts.Inc()
	w.gauges()
	w.o.event(obs.EvRollOut, dataset, partitionID, nil, nil)
	return nil
}

// Partitions returns the partition IDs of a data set in roll-in order.
func (w *Warehouse[V]) Partitions(dataset string) ([]string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return nil, unknownDataset(dataset)
	}
	return ds.ids(), nil
}

// Info returns metadata for one partition's sample.
func (w *Warehouse[V]) Info(dataset, partitionID string) (PartitionInfo, error) {
	s, err := w.PartitionSample(dataset, partitionID)
	if err != nil {
		return PartitionInfo{}, err
	}
	return PartitionInfo{
		ID:         partitionID,
		Kind:       s.Kind,
		SampleSize: s.Size(),
		ParentSize: s.ParentSize,
		Footprint:  s.Footprint(),
	}, nil
}

// PartitionSample returns a copy of one partition's stored sample. It reads
// through the sample cache when one is configured.
func (w *Warehouse[V]) PartitionSample(dataset, partitionID string) (*core.Sample[V], error) {
	return w.PartitionSampleContext(context.Background(), dataset, partitionID)
}

// PartitionSampleContext is PartitionSample honoring ctx: a done context is
// observed before the store is touched and while waiting on a coalesced
// in-flight fetch.
func (w *Warehouse[V]) PartitionSampleContext(ctx context.Context, dataset, partitionID string) (*core.Sample[V], error) {
	w.mu.RLock()
	_, ok := w.sets[dataset]
	w.mu.RUnlock()
	if !ok {
		return nil, unknownDataset(dataset)
	}
	s, err := w.ld.loadOne(ctx, w.key(dataset, partitionID))
	if err != nil {
		return nil, fmt.Errorf("warehouse: load %s/%s: %w", dataset, partitionID, err)
	}
	// The loader's sample is shared with the cache; the caller may mutate its own.
	return s.Clone(), nil
}

// SkippedPartition records one partition a degraded merge left out, with the
// classified reason ("not found", "corrupt", or "read error") and the
// underlying error.
type SkippedPartition struct {
	ID     string
	Reason string
	Err    error
}

// MergeCoverage reports which of the requested partitions a merge actually
// covered. Skipped is empty for a full-coverage merge. Pruned lists
// partitions a bounded query's planner deliberately never loaded (see
// MergedSamplePlanned); unlike Skipped they do not make the answer degraded —
// the caller asked for exactly this trade. SketchPruned lists partitions a
// sketch sidecar proved irrelevant to the query's range before the loader
// ran (see sketchrange.go); unlike cost-pruned partitions their contribution
// is known exactly (zero matches), so the answer is unchanged, not partial.
type MergeCoverage struct {
	Requested    []string
	Merged       []string
	Skipped      []SkippedPartition
	Pruned       []string
	SketchPruned []string
}

// Partial reports whether any requested partition was skipped.
func (c MergeCoverage) Partial() bool { return len(c.Skipped) > 0 }

// MergedSample produces a uniform sample of the union of the named
// partitions — the paper's S_K for K ⊆ {1..k}. Passing no IDs merges all
// partitions of the data set (a sample of the entire data set). The stored
// per-partition samples are not consumed. Any unreadable partition fails the
// whole merge; see MergedSamplePartial for the degraded alternative.
func (w *Warehouse[V]) MergedSample(dataset string, partitionIDs ...string) (*core.Sample[V], error) {
	return w.MergedSampleContext(context.Background(), dataset, partitionIDs...)
}

// MergedSampleContext is MergedSample honoring cancellation: once ctx is
// done, partition loads not yet started are skipped, waits on coalesced
// fetches are abandoned, and the merge is not attempted; the context's error
// is returned. Deadline-bound callers (e.g. the swd server) use this to stop
// paying for answers nobody is waiting for.
func (w *Warehouse[V]) MergedSampleContext(ctx context.Context, dataset string, partitionIDs ...string) (*core.Sample[V], error) {
	res, err := w.run(ctx, query[V]{op: "merge", dataset: dataset, ids: partitionIDs})
	return res.sample, err
}

// MergedSamplePartial is MergedSample with graceful degradation: partitions
// whose samples cannot be read (missing, quarantined as corrupt, or erroring)
// are skipped, and the result is the uniform sample of the union of the
// partitions that survived — still statistically uniform over that reduced
// union, since the pairwise merge composes over any subset. The coverage
// report names every skipped partition so callers can decide whether the
// degraded answer is acceptable. It errors only if no requested partition is
// readable.
func (w *Warehouse[V]) MergedSamplePartial(dataset string, partitionIDs ...string) (*core.Sample[V], MergeCoverage, error) {
	return w.MergedSamplePartialContext(context.Background(), dataset, partitionIDs...)
}

// MergedSamplePartialContext is MergedSamplePartial honoring cancellation.
// Context expiry is never degraded around: a load that failed because ctx was
// done fails the whole merge (reporting a partial answer for a query nobody
// is waiting for would be wasted work), while per-partition storage failures
// keep their skip-and-report semantics.
func (w *Warehouse[V]) MergedSamplePartialContext(ctx context.Context, dataset string, partitionIDs ...string) (*core.Sample[V], MergeCoverage, error) {
	res, err := w.run(ctx, query[V]{op: "merge", dataset: dataset, ids: partitionIDs, partial: true})
	return res.sample, res.cov, err
}

// skipReason classifies a load failure for the coverage report.
func skipReason(err error) string {
	switch {
	case storage.IsNotFound(err):
		return "not found"
	case storage.IsCorrupt(err):
		return "corrupt"
	default:
		return "read error"
	}
}

// Window produces a uniform sample of the union of the most recent n
// partitions (by roll-in order) — the paper's moving-window approximation of
// stream sampling ("as new daily samples are rolled in and old daily samples
// are rolled out, the system approximates stream sampling algorithms").
func (w *Warehouse[V]) Window(dataset string, n int) (*core.Sample[V], error) {
	return w.WindowContext(context.Background(), dataset, n)
}

// WindowContext is Window honoring cancellation (see MergedSampleContext).
func (w *Warehouse[V]) WindowContext(ctx context.Context, dataset string, n int) (*core.Sample[V], error) {
	if n < 1 {
		return nil, fmt.Errorf("warehouse: window size %d < 1", n)
	}
	res, err := w.run(ctx, query[V]{op: "merge", dataset: dataset, window: n})
	return res.sample, err
}

// key maps (dataset, partition) to a store key.
func (w *Warehouse[V]) key(dataset, partitionID string) string {
	return dataset + "/" + partitionID
}
