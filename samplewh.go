// Package samplewh is a warehouse for sampled data, implementing the
// algorithms of Brown & Haas, "Techniques for Warehousing of Sample Data"
// (ICDE 2006).
//
// A full-scale data warehouse holds many data sets — bags of values — whose
// contents arrive in batches or streams and are divided into disjoint
// partitions. This library maintains, for every partition, a compact,
// bounded-footprint, statistically uniform random sample, and can merge
// per-partition samples into a uniform sample of any union of partitions:
//
//	cfg := samplewh.ConfigForNF(8192)         // footprint for 8192 values
//	s := samplewh.NewHRSampler[int64](cfg, 1) // seed 1
//	for _, v := range values {
//	    s.Feed(v)
//	}
//	sample, _ := s.Finalize()
//
// Two hybrid samplers are provided. Algorithm HB (NewHBSampler) starts with
// an exact compact histogram, degrades to Bernoulli sampling at the rate
// q(N, p, n_F) of the paper's equation (1), and falls back to reservoir
// sampling only in the unlikely event the Bernoulli sample overflows; its
// samples merge very cheaply. Algorithm HR (NewHRSampler) degrades directly
// to reservoir sampling; it needs no advance knowledge of the partition size
// and always delivers exactly n_F elements once the bound is hit, at the
// cost of a hypergeometric-split merge (HRMerge, Theorem 1 of the paper).
//
// The Warehouse type organizes partition samples per data set on top of a
// pluggable Store (in-memory or file-backed), supporting roll-in/roll-out
// and on-demand merged samples of arbitrary partition subsets, and the
// estimate API answers approximate COUNT/SUM/AVG/quantile/distinct queries
// with confidence intervals from any uniform sample.
//
// All randomness is deterministic given a seed; parallel samplers split
// independent random streams.
package samplewh

import (
	"cmp"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/fullwh"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
	"samplewh/internal/stream"
	"samplewh/internal/warehouse"
	"samplewh/internal/workload"
)

// RNG is the deterministic splittable random number generator used by all
// samplers (PCG-XSL-RR 128/64).
type RNG = randx.RNG

// NewRNG returns a deterministically seeded generator.
func NewRNG(seed uint64) *RNG { return randx.New(seed) }

// Source is the randomness interface consumed by samplers and merges.
type Source = randx.Source

// Config carries the footprint bound F, the compact-representation size
// model, and the exceedance probability p of the paper's equation (1).
type Config = core.Config

// ConfigForNF builds a Config admitting nf sample values under the default
// size model (8-byte values, 4-byte counts), mirroring the paper's
// n_F = 8192 setup.
func ConfigForNF(nf int64) Config { return core.ConfigForNF(nf) }

// Sample is a finalized, mergeable, self-describing partition sample.
type Sample[V cmp.Ordered] = core.Sample[V]

// Sampler is the shared contract of all partition samplers.
type Sampler[V cmp.Ordered] = core.Sampler[V]

// HB is the paper's Algorithm HB (hybrid Bernoulli) sampler.
type HB[V cmp.Ordered] = core.HB[V]

// HR is the paper's Algorithm HR (hybrid reservoir) sampler.
type HR[V cmp.Ordered] = core.HR[V]

// SB is the fixed-rate stratified Bernoulli baseline (Algorithm SB).
type SB[V cmp.Ordered] = core.SB[V]

// NewHBSampler returns an Algorithm HB sampler for a partition of expected
// size expectedN, seeded deterministically.
func NewHBSampler[V cmp.Ordered](cfg Config, expectedN int64, seed uint64) *HB[V] {
	return core.NewHB[V](cfg, expectedN, randx.New(seed))
}

// NewHRSampler returns an Algorithm HR sampler, seeded deterministically.
func NewHRSampler[V cmp.Ordered](cfg Config, seed uint64) *HR[V] {
	return core.NewHR[V](cfg, randx.New(seed))
}

// NewSBSampler returns a fixed-rate Bern(q) sampler, seeded
// deterministically.
func NewSBSampler[V cmp.Ordered](cfg Config, q float64, seed uint64) *SB[V] {
	return core.NewSB[V](cfg, q, randx.New(seed))
}

// QApprox is the paper's equation (1): the Bernoulli rate for Algorithm HB.
func QApprox(n int64, p float64, nf int64) float64 { return core.QApprox(n, p, nf) }

// QExact solves for the exact rate by bisection (ground truth for QApprox).
func QExact(n int64, p float64, nf int64, tol float64) float64 {
	return core.QExact(n, p, nf, tol)
}

// HRMerge is the paper's Figure 8 merge for Algorithm HR samples
// (hypergeometric split, Theorem 1).
func HRMerge[V cmp.Ordered](s1, s2 *Sample[V], src Source) (*Sample[V], error) {
	return core.HRMerge(s1, s2, src)
}

// MergeFunc is the signature shared by the pairwise merges.
type MergeFunc[V cmp.Ordered] = core.MergeFunc[V]

// MergeSerial folds samples with a left-deep chain of pairwise merges.
func MergeSerial[V cmp.Ordered](samples []*Sample[V], merge MergeFunc[V], src Source) (*Sample[V], error) {
	return core.MergeSerial(samples, merge, src)
}

// MergeTree folds samples with a balanced binary tree of pairwise merges.
func MergeTree[V cmp.Ordered](samples []*Sample[V], merge MergeFunc[V], src Source) (*Sample[V], error) {
	return core.MergeTree(samples, merge, src)
}

// Stratified is a stratified random sample: per-partition uniform samples
// kept separate (paper §4.1), queried with stratified-expansion estimators.
type Stratified[V cmp.Ordered] = core.Stratified[V]

// NewStratified assembles a stratified sample from per-partition samples.
func NewStratified[V cmp.Ordered](samples ...*Sample[V]) (*Stratified[V], error) {
	return core.NewStratified(samples...)
}

// NewStratifiedEstimator builds the stratified-expansion estimator.
func NewStratifiedEstimator[V cmp.Ordered](st *Stratified[V]) (*estimate.StratifiedEstimator[V], error) {
	return estimate.NewStratified(st)
}

// UnionBernoulli unions Bernoulli samples of disjoint partitions without a
// footprint bound, thinning every input to the smallest rate (paper §4.1).
// It only reads its inputs: Algorithm SB's merge. The union's entries come
// out in ascending value order, which is why V must be ordered.
func UnionBernoulli[V cmp.Ordered](samples []*Sample[V], src Source) (*Sample[V], error) {
	return core.UnionBernoulli(samples, src)
}

// SymmetricMerger caches alias tables across repeated symmetric HR merges
// (paper §4.2); use its Merge method with MergeTree.
type SymmetricMerger[V cmp.Ordered] = core.SymmetricMerger[V]

// NewSymmetricMerger returns a merger with an empty alias-table cache.
func NewSymmetricMerger[V cmp.Ordered]() *SymmetricMerger[V] {
	return core.NewSymmetricMerger[V]()
}

// Warehouse organizes per-partition samples by data set with roll-in,
// roll-out, windowing and on-demand merged samples of int64 values. Its
// reads take a context; NewPartitionSampler seeds each partition's sampler
// from the partition's identity.
type Warehouse = warehouse.Warehouse[int64]

// DatasetConfig describes one data set's sampling regime.
type DatasetConfig = warehouse.DatasetConfig

// Warehouse algorithm choices.
const (
	AlgHB = warehouse.AlgHB
	AlgHR = warehouse.AlgHR
	AlgSB = warehouse.AlgSB
)

// RecoveryReport describes what a warehouse recovery reconciled: the catalog
// it restored plus any dangling partitions dropped and orphan keys found.
type RecoveryReport = warehouse.RecoveryReport

// OpenWarehouse opens an int64-valued warehouse over store, the one way to
// build one: the catalog (data set configurations and partition lists) is
// persisted as a manifest in the store and restored — reconciled against the
// store's actual contents — on every open. An empty store opens as an empty
// warehouse.
func OpenWarehouse(store Store, seed uint64) (*Warehouse, *RecoveryReport, error) {
	return warehouse.Open[int64](store, seed)
}

// QueryConfig tunes the warehouse read path: the decoded-sample cache budget
// (bytes of sample footprint; 0 disables caching). Apply with
// Warehouse.SetQueryConfig.
type QueryConfig = warehouse.QueryConfig

// Store is the persistence contract for int64-valued sample warehouses:
// samples, their encoded bytes, the blobs that hold the catalog, and
// metrics. A custom store implements all of it.
type Store = storage.Store[int64]

// NewMemStore returns an in-memory store.
func NewMemStore() Store { return storage.NewMemStore[int64](storage.Int64Codec{}) }

// NewFileStore returns a file-backed store rooted at dir.
func NewFileStore(dir string) (Store, error) {
	return storage.NewFileStore[int64](dir, storage.Int64Codec{})
}

// Estimator answers approximate queries over one sample.
type Estimator[V cmp.Ordered] = estimate.Estimator[V]

// NewEstimator builds a 95%-confidence estimator over a sample.
func NewEstimator[V cmp.Ordered](s *Sample[V]) *Estimator[V] { return estimate.New(s) }

// JoinSizeEstimate estimates the equality-join size |A ⋈ B| from two
// samples (a lower-bound-leaning plug-in estimator; see its doc).
func JoinSizeEstimate[V cmp.Ordered](a, b *Sample[V]) (float64, error) {
	return estimate.JoinSizeEstimate(a, b)
}

// ValueSetResemblance estimates distinct-value overlap between two samples
// (Jaccard and containment), the metadata-discovery primitive.
func ValueSetResemblance[V cmp.Ordered](a, b *Sample[V]) (estimate.Resemblance, error) {
	return estimate.ValueSetResemblance(a, b)
}

// FullWarehouse is a miniature full-scale data warehouse (the left side of
// the paper's Figure 1): file-backed partitions of raw values with exact
// scan queries — the slow ground truth the sample warehouse shadows.
type FullWarehouse = fullwh.Warehouse

// OpenFullWarehouse opens (creating if necessary) a full warehouse at dir.
func OpenFullWarehouse(dir string) (*FullWarehouse, error) { return fullwh.Open(dir) }

// Shadow ties a full warehouse to a sample warehouse: every ingested batch
// is written to the full side while being sampled, and the bounded sample
// rolls into the shadow side under the same key.
type Shadow = fullwh.Shadow

// NewShadow pairs a full warehouse with its sample warehouse.
func NewShadow(full *FullWarehouse, samples *Warehouse) *Shadow {
	return fullwh.NewShadow(full, samples)
}

// SamplerFactory builds the sampler for partition index i covering expectedN
// elements. The stream package is generic over the value type (see
// stream.SamplerFactory); this alias keeps the facade's historical int64
// signature.
type SamplerFactory = stream.SamplerFactory[int64]

// Splitter fans one stream out over parallel samplers.
type Splitter = stream.Splitter[int64]

// NewSplitter builds a splitter over w samplers created by factory.
func NewSplitter(w int, factory SamplerFactory) *Splitter {
	return stream.NewSplitter(w, factory)
}

// RatioPartitioner finalizes a partition whenever the sampling fraction
// would drop below a lower bound (paper §2's on-the-fly partitioning).
type RatioPartitioner = stream.RatioPartitioner[int64]

// NewRatioPartitioner builds a ratio-triggered partitioner.
func NewRatioPartitioner(minFraction float64, minSize int64, factory SamplerFactory) (*RatioPartitioner, error) {
	return stream.NewRatioPartitioner(minFraction, minSize, factory)
}

// Metrics is the observability registry: atomic counters, gauges, bounded
// latency histograms and structured event tracing, with nil-safe no-op
// semantics throughout (a nil *Metrics leaves every component
// uninstrumented at no measurable cost). Route a component into a registry
// with its Instrument method — samplers, warehouses, stores, splitters and
// partitioners all have one.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsSnapshot is a point-in-time copy of every metric in a registry; it
// marshals to expvar-style JSON and renders a human-readable report via
// String.
type MetricsSnapshot = obs.Snapshot

// MemorySink retains the most recent events in a fixed-capacity ring buffer.
type MemorySink = obs.MemorySink

// NewMemorySink returns a sink retaining up to capacity events.
func NewMemorySink(capacity int) *MemorySink { return obs.NewMemorySink(capacity) }

// defaultMetrics backs DefaultMetrics and Snapshot for single-registry
// programs.
var defaultMetrics = obs.NewRegistry()

// DefaultMetrics returns the package-level registry, for programs that want
// one shared registry without plumbing. Components must still be routed into
// it explicitly via their Instrument methods.
func DefaultMetrics() *Metrics { return defaultMetrics }

// Snapshot copies the current state of the package-level registry.
func Snapshot() MetricsSnapshot { return defaultMetrics.Snapshot() }

// WorkloadSpec describes a synthetic data set (the paper's unique, uniform
// and Zipfian evaluation workloads).
type WorkloadSpec = workload.Spec

// Workload distributions.
const (
	WorkloadUnique  = workload.Unique
	WorkloadUniform = workload.Uniform
	WorkloadZipfian = workload.Zipfian
)

// NewWorkload returns a generator over the whole synthetic data set.
func NewWorkload(spec WorkloadSpec) *workload.Generator { return workload.New(spec) }
