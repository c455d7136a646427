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
	"net/http"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/fullwh"
	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/randx"
	"samplewh/internal/samplecache"
	"samplewh/internal/server"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
	"samplewh/internal/stream"
	"samplewh/internal/wal"
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

// SizeModel prices the compact (value, count) representation.
type SizeModel = histogram.SizeModel

// Histogram is the compact multiset representation samples are stored in.
type Histogram[V comparable] = histogram.Histogram[V]

// Kind records the statistical nature of a finalized sample.
type Kind = core.Kind

// Sample kinds.
const (
	Exhaustive    = core.Exhaustive
	BernoulliKind = core.BernoulliKind
	ReservoirKind = core.ReservoirKind
)

// Sample is a finalized, mergeable, self-describing partition sample.
type Sample[V comparable] = core.Sample[V]

// Sampler is the shared contract of all partition samplers.
type Sampler[V comparable] = core.Sampler[V]

// HB is the paper's Algorithm HB (hybrid Bernoulli) sampler.
type HB[V comparable] = core.HB[V]

// HR is the paper's Algorithm HR (hybrid reservoir) sampler.
type HR[V comparable] = core.HR[V]

// SB is the fixed-rate stratified Bernoulli baseline (Algorithm SB).
type SB[V comparable] = core.SB[V]

// ConciseSampler is the Gibbons–Matias concise sampling baseline; the paper
// proves it is not uniform (§3.3).
type ConciseSampler[V comparable] = core.ConciseSampler[V]

// CountingSampler is the deletion-capable counting-sample baseline.
type CountingSampler[V comparable] = core.CountingSampler[V]

// NewHBSampler returns an Algorithm HB sampler for a partition of expected
// size expectedN, seeded deterministically.
func NewHBSampler[V comparable](cfg Config, expectedN int64, seed uint64) *HB[V] {
	return core.NewHB[V](cfg, expectedN, randx.New(seed))
}

// NewHRSampler returns an Algorithm HR sampler, seeded deterministically.
func NewHRSampler[V comparable](cfg Config, seed uint64) *HR[V] {
	return core.NewHR[V](cfg, randx.New(seed))
}

// NewSBSampler returns a fixed-rate Bern(q) sampler, seeded
// deterministically.
func NewSBSampler[V comparable](cfg Config, q float64, seed uint64) *SB[V] {
	return core.NewSB[V](cfg, q, randx.New(seed))
}

// NewConciseSampler returns a concise sampler (purgeFactor 0 selects the
// default 0.8), seeded deterministically.
func NewConciseSampler[V comparable](cfg Config, purgeFactor float64, seed uint64) *ConciseSampler[V] {
	return core.NewConcise[V](cfg, purgeFactor, randx.New(seed))
}

// QApprox is the paper's equation (1): the Bernoulli rate for Algorithm HB.
func QApprox(n int64, p float64, nf int64) float64 { return core.QApprox(n, p, nf) }

// QExact solves for the exact rate by bisection (ground truth for QApprox).
func QExact(n int64, p float64, nf int64, tol float64) float64 {
	return core.QExact(n, p, nf, tol)
}

// HBMerge is the paper's Figure 6 merge for Algorithm HB samples.
func HBMerge[V comparable](s1, s2 *Sample[V], src Source) (*Sample[V], error) {
	return core.HBMerge(s1, s2, src)
}

// HRMerge is the paper's Figure 8 merge for Algorithm HR samples
// (hypergeometric split, Theorem 1).
func HRMerge[V comparable](s1, s2 *Sample[V], src Source) (*Sample[V], error) {
	return core.HRMerge(s1, s2, src)
}

// SBMerge unions Bernoulli samples, equalizing rates if they differ.
func SBMerge[V comparable](s1, s2 *Sample[V], src Source) (*Sample[V], error) {
	return core.SBMerge(s1, s2, src)
}

// MergeFunc is the signature shared by the pairwise merges.
type MergeFunc[V comparable] = core.MergeFunc[V]

// MergeSerial folds samples with a left-deep chain of pairwise merges.
func MergeSerial[V comparable](samples []*Sample[V], merge MergeFunc[V], src Source) (*Sample[V], error) {
	return core.MergeSerial(samples, merge, src)
}

// MergeTree folds samples with a balanced binary tree of pairwise merges.
func MergeTree[V comparable](samples []*Sample[V], merge MergeFunc[V], src Source) (*Sample[V], error) {
	return core.MergeTree(samples, merge, src)
}

// MergeTreeParallel is MergeTree with each level's independent pairwise
// merges executed concurrently. Randomness is pre-assigned per tree position,
// so the result is byte-identical to the sequential MergeTree for the same
// seed, at any parallelism.
func MergeTreeParallel[V comparable](samples []*Sample[V], merge MergeFunc[V], src Source, parallelism int) (*Sample[V], error) {
	return core.MergeTreeParallel(samples, merge, src, parallelism)
}

// Stratified is a stratified random sample: per-partition uniform samples
// kept separate (paper §4.1), queried with stratified-expansion estimators.
type Stratified[V comparable] = core.Stratified[V]

// NewStratified assembles a stratified sample from per-partition samples.
func NewStratified[V comparable](samples ...*Sample[V]) (*Stratified[V], error) {
	return core.NewStratified(samples...)
}

// NewStratifiedEstimator builds the stratified-expansion estimator.
func NewStratifiedEstimator[V comparable](st *Stratified[V]) (*estimate.StratifiedEstimator[V], error) {
	return estimate.NewStratified(st)
}

// UnionBernoulli unions Bernoulli samples of disjoint partitions without a
// footprint bound, thinning every input to the smallest rate (paper §4.1).
// It only reads its inputs: Algorithm SB's merge.
func UnionBernoulli[V comparable](samples []*Sample[V], src Source) (*Sample[V], error) {
	return core.UnionBernoulli(samples, src)
}

// SymmetricMerger caches alias tables across repeated symmetric HR merges
// (paper §4.2); use its Merge method with MergeTree.
type SymmetricMerger[V comparable] = core.SymmetricMerger[V]

// NewSymmetricMerger returns a merger with an empty alias-table cache.
func NewSymmetricMerger[V comparable]() *SymmetricMerger[V] {
	return core.NewSymmetricMerger[V]()
}

// Warehouse organizes per-partition samples by data set with roll-in,
// roll-out, windowing and on-demand merged samples (int64 values; use
// GenericWarehouse for other value types).
type Warehouse = warehouse.Warehouse[int64]

// GenericWarehouse is the warehouse over an arbitrary comparable value type.
type GenericWarehouse[V comparable] = warehouse.Warehouse[V]

// DatasetConfig describes one data set's sampling regime.
type DatasetConfig = warehouse.DatasetConfig

// Algorithm selects a data set's sampler/merge family.
type Algorithm = warehouse.Algorithm

// Warehouse algorithm choices.
const (
	AlgHB = warehouse.AlgHB
	AlgHR = warehouse.AlgHR
	AlgSB = warehouse.AlgSB
)

// NewWarehouse creates an int64-valued warehouse over store.
func NewWarehouse(store Store, seed uint64) *Warehouse { return warehouse.New[int64](store, seed) }

// NewGenericWarehouse creates a warehouse over any comparable value type.
func NewGenericWarehouse[V comparable](store storage.Store[V], seed uint64) *GenericWarehouse[V] {
	return warehouse.New[V](store, seed)
}

// RecoveryReport describes what a warehouse recovery reconciled: the catalog
// it restored plus any dangling partitions dropped and orphan keys found.
type RecoveryReport = warehouse.RecoveryReport

// OpenWarehouse opens a durable int64-valued warehouse over store: the
// catalog (data set configurations and partition lists) is persisted as a
// manifest in the store and restored — reconciled against the store's actual
// contents — on every open. The store must support blob metadata (the
// built-in memory and file stores do).
func OpenWarehouse(store Store, seed uint64) (*Warehouse, *RecoveryReport, error) {
	return warehouse.Open[int64](store, seed)
}

// OpenGenericWarehouse is OpenWarehouse over any comparable value type.
func OpenGenericWarehouse[V comparable](store storage.Store[V], seed uint64) (*GenericWarehouse[V], *RecoveryReport, error) {
	return warehouse.Open[V](store, seed)
}

// SkippedPartition names one partition a partial merge left out, with why.
type SkippedPartition = warehouse.SkippedPartition

// MergeCoverage reports which of a partial merge's requested partitions made
// it into the result and which were skipped.
type MergeCoverage = warehouse.MergeCoverage

// QueryBounds carries a bounded query's targets: a fraction-scale error
// bound and/or a merge time budget (DESIGN.md §14). The zero value runs the
// ordinary full merge.
type QueryBounds = plan.Bounds

// PlannedQuery configures Warehouse.MergedSamplePlanned: the bounds, the
// planner confidence and the half-width evaluator driving early stop.
type PlannedQuery[V comparable] = warehouse.PlannedQuery[V]

// PlanExecution reports how a bounded merge ran: the chosen plan, partitions
// loaded versus pruned, the stop reason and the achieved half-width.
type PlanExecution = warehouse.PlanExecution

// PartitionStats is one entry of the warehouse's per-partition statistics
// registry feeding the query planner.
type PartitionStats = warehouse.PartitionStats

// SketchSummary is a partition's mergeable summary sidecar: count, min/max,
// first two moments, a KMV distinct sketch and a space-saving heavy-hitter
// table (DESIGN.md §15). Sidecars are built at roll-in, persisted in the
// manifest, and drive prove-pruning of range queries, planner ranking and
// sketch-assisted distinct/topk answers.
type SketchSummary = sketch.Summary

// HeavyHit is one space-saving counter of a sketch's heavy-hitter table:
// Value occurred at least Count-Err and at most Count times.
type HeavyHit = sketch.HeavyHit

// NewSketchBuilder streams values into a sketch sidecar; pass its Summary
// to Warehouse.RollInSketched so the sidecar states facts about the full
// partition rather than the stored sample.
func NewSketchBuilder() *sketch.Builder { return sketch.NewBuilder() }

// SketchFromSample derives a sidecar from a stored sample (the RollIn
// default and the fsck -fix rebuild path).
func SketchFromSample(s *Sample[int64]) *sketch.Summary { return sketch.FromSample(s) }

// MergeSketches unions sidecars; the result is identical to a single-pass
// sketch of the underlying union, so any merge topology is sound.
func MergeSketches(sums ...*SketchSummary) *SketchSummary { return sketch.MergeAll(sums...) }

// SketchRange is the value range a planned query proves partitions in or
// out of via their sidecars.
type SketchRange = warehouse.SketchRange

// SketchFsckReport summarizes one sidecar audit (swcli fsck's sketch pass).
type SketchFsckReport = warehouse.SketchFsckReport

// FsckSketches audits a store's manifest sketch sidecars offline, rebuilding
// defective ones from the stored samples when fix is set.
func FsckSketches(store Store, fix bool) (*SketchFsckReport, error) {
	return warehouse.FsckSketches(store, fix)
}

// QueryConfig tunes the warehouse read path: the decoded-sample cache budget
// (bytes of sample footprint; 0 disables caching), the partition-load worker
// pool, and the merge parallelism. Apply with Warehouse.SetQueryConfig.
type QueryConfig = warehouse.QueryConfig

// CacheStats is a point-in-time snapshot of the read-path sample cache
// counters, returned by Warehouse.CacheStats.
type CacheStats = samplecache.Stats

// GenericStore is the persistence contract for warehouses over arbitrary
// value types.
type GenericStore[V comparable] = storage.Store[V]

// NewGenericMemStore returns an in-memory store for any value type.
func NewGenericMemStore[V comparable]() GenericStore[V] { return storage.NewMemStore[V]() }

// Store is the persistence contract for int64-valued sample warehouses.
type Store = storage.Store[int64]

// NewMemStore returns an in-memory store.
func NewMemStore() Store { return storage.NewMemStore[int64]() }

// NewFileStore returns a file-backed store rooted at dir.
func NewFileStore(dir string) (Store, error) {
	return storage.NewFileStore[int64](dir, storage.Int64Codec{})
}

// RetryPolicy configures RetryStore backoff: attempt budget, capped
// exponential delay and jitter.
type RetryPolicy = storage.RetryPolicy

// NewRetryStore wraps an int64-valued store so transient failures are
// retried under capped exponential backoff with jitter; permanent failures
// (missing keys, corruption) pass straight through.
func NewRetryStore(inner Store, pol RetryPolicy) Store {
	return storage.NewRetryStore[int64](inner, pol)
}

// NewGenericRetryStore is NewRetryStore over any comparable value type.
func NewGenericRetryStore[V comparable](inner storage.Store[V], pol RetryPolicy) storage.Store[V] {
	return storage.NewRetryStore[V](inner, pol)
}

// IsNotFound reports whether err is a missing-key store error.
func IsNotFound(err error) bool { return storage.IsNotFound(err) }

// IsCorrupt reports whether err marks data that failed checksum or decode
// validation (the file store quarantines such files as *.corrupt).
func IsCorrupt(err error) bool { return storage.IsCorrupt(err) }

// IsRetryable reports whether err is transient — worth retrying. Missing
// keys, corruption and unclassified errors are permanent.
func IsRetryable(err error) bool { return storage.IsRetryable(err) }

// Estimate is a point estimate with a confidence interval.
type Estimate = estimate.Estimate

// Estimator answers approximate queries over one sample.
type Estimator[V comparable] = estimate.Estimator[V]

// NewEstimator builds a 95%-confidence estimator over a sample.
func NewEstimator[V comparable](s *Sample[V]) *Estimator[V] { return estimate.New(s) }

// NewEstimatorWithConfidence builds an estimator at the given confidence
// level (0.90, 0.95 or 0.99).
func NewEstimatorWithConfidence[V comparable](s *Sample[V], confidence float64) (*Estimator[V], error) {
	return estimate.NewWithConfidence(s, confidence)
}

// OrderedEstimator answers order-dependent queries (quantiles, median,
// equi-depth histograms) over one sample.
type OrderedEstimator[V comparable] = estimate.OrderedEstimator[V]

// NewOrderedEstimator adds quantile queries given a total order on values.
func NewOrderedEstimator[V comparable](s *Sample[V], less func(a, b V) bool) (*OrderedEstimator[V], error) {
	return estimate.NewOrdered(s, less)
}

// FreqEntry is one TopK value with its estimated data-set frequency.
type FreqEntry[V comparable] = estimate.FreqEntry[V]

// Resemblance holds value-set overlap estimates between two samples
// (Jaccard and containment), returned by ValueSetResemblance.
type Resemblance = estimate.Resemblance

// DiffEstimate returns the estimated difference a − b between estimates from
// independent samples, with standard errors combined in quadrature.
func DiffEstimate(a, b Estimate) Estimate { return estimate.Diff(a, b) }

// GroupResult is one group's estimated aggregate from GroupBy.
type GroupResult[K comparable] = estimate.GroupResult[K]

// GroupBy estimates a GROUP BY COUNT(*) with per-group confidence intervals.
func GroupBy[V comparable, K comparable](e *Estimator[V], key func(V) K) ([]GroupResult[K], error) {
	return estimate.GroupBy(e, key)
}

// JoinSizeEstimate estimates the equality-join size |A ⋈ B| from two
// samples (a lower-bound-leaning plug-in estimator; see its doc).
func JoinSizeEstimate[V comparable](a, b *Sample[V]) (float64, error) {
	return estimate.JoinSizeEstimate(a, b)
}

// ValueSetResemblance estimates distinct-value overlap between two samples
// (Jaccard and containment), the metadata-discovery primitive.
func ValueSetResemblance[V comparable](a, b *Sample[V]) (estimate.Resemblance, error) {
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

// TemporalPartitioner cuts a stream into fixed-length partitions.
type TemporalPartitioner = stream.TemporalPartitioner[int64]

// NewTemporalPartitioner cuts a partition after every `every` values.
func NewTemporalPartitioner(every int64, factory SamplerFactory) *TemporalPartitioner {
	return stream.NewTemporalPartitioner(every, factory)
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

// HistogramSummary is the exported distribution snapshot of one latency or
// size histogram.
type HistogramSummary = obs.HistogramSummary

// Event is one structured trace record (phase transition, purge, roll-in,
// merge, ...).
type Event = obs.Event

// EventSink receives emitted events; implementations must be safe for
// concurrent use and must not block.
type EventSink = obs.EventSink

// FuncSink adapts a function to the EventSink interface.
type FuncSink = obs.FuncSink

// MemorySink retains the most recent events in a fixed-capacity ring buffer.
type MemorySink = obs.MemorySink

// NewMemorySink returns a sink retaining up to capacity events.
func NewMemorySink(capacity int) *MemorySink { return obs.NewMemorySink(capacity) }

// Event types emitted by the instrumented stack.
const (
	EvPhaseTransition = obs.EvPhaseTransition
	EvPurge           = obs.EvPurge
	EvFinalize        = obs.EvFinalize
	EvRollIn          = obs.EvRollIn
	EvRollOut         = obs.EvRollOut
	EvMerge           = obs.EvMerge
	EvPartitionCut    = obs.EvPartitionCut
	EvError           = obs.EvError
	EvRetry           = obs.EvRetry
	EvQuarantine      = obs.EvQuarantine
	EvPartialMerge    = obs.EvPartialMerge
	EvRecovery        = obs.EvRecovery
	EvCacheEvict      = obs.EvCacheEvict
	EvShed            = obs.EvShed
	EvDrain           = obs.EvDrain
)

// defaultMetrics backs DefaultMetrics and Snapshot for single-registry
// programs.
var defaultMetrics = obs.NewRegistry()

// DefaultMetrics returns the package-level registry, for programs that want
// one shared registry without plumbing. Components must still be routed into
// it explicitly via their Instrument methods.
func DefaultMetrics() *Metrics { return defaultMetrics }

// Snapshot copies the current state of the package-level registry.
func Snapshot() MetricsSnapshot { return defaultMetrics.Snapshot() }

// InstrumentStore routes a store's metrics into reg when the concrete store
// supports instrumentation (the built-in memory and file stores do). It
// reports whether the store was instrumented.
func InstrumentStore[V comparable](s storage.Store[V], reg *Metrics) bool {
	in, ok := s.(interface{ Instrument(*obs.Registry) })
	if ok {
		in.Instrument(reg)
	}
	return ok
}

// Server serves an int64-valued warehouse over HTTP/JSON with admission
// control (bounded queue + load shedding), per-request deadlines propagated
// into the merge path, approximate-query endpoints with confidence intervals
// and merge coverage, and graceful drain. Mount Handler() on an http.Server;
// see cmd/swd for the full daemon.
type Server = server.Server

// ServerConfig tunes a Server's deadlines, per-class concurrency limits,
// admission queue and instrumentation.
type ServerConfig = server.Config

// NewServer builds a Server over an int64-valued warehouse.
func NewServer(w *Warehouse, cfg ServerConfig) *Server { return server.New(w, cfg) }

// ServerClient is the Go client for a running Server/swd.
type ServerClient = server.Client

// NewServerClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8385"); httpc nil selects http.DefaultClient.
func NewServerClient(base string, httpc *http.Client) *ServerClient {
	return server.NewClient(base, httpc)
}

// IsShed reports whether err (from a ServerClient call) is a 429 load-shed
// response; its APIError carries the server's Retry-After hint.
func IsShed(err error) bool { return server.IsShed(err) }

// ClientRetryPolicy tunes a ServerClient's automatic retries of shed (429)
// and transient 5xx responses for idempotent requests: capped jittered
// backoff, Retry-After honored, bounded by the request context. NewClient
// installs server.DefaultRetryPolicy(); server.NoRetry() disables it.
type ClientRetryPolicy = server.RetryPolicy

// IngestJournal is the segmented write-ahead ingest journal: configure one
// on ServerConfig.Journal to make acknowledged ingest batches crash-durable
// (see cmd/swd and DESIGN.md §11).
type IngestJournal = wal.Log[int64]

// ClusterConfig switches a Server into fault-tolerant cluster mode via
// Server.EnableCluster: static peer membership, consistent-hash partition
// placement with replication, replicated scatter-gather queries with hedged
// requests and per-peer circuit breakers, and degraded-coverage answers when
// shards are unreachable (see cmd/swd -peers and DESIGN.md §13).
type ClusterConfig = server.ClusterConfig

// ClusterBreakerConfig tunes the per-peer circuit breakers of a clustered
// Server (rolling failure window, open duration, half-open probing).
type ClusterBreakerConfig = server.BreakerConfig

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

// WorkloadPartitions returns one generator per contiguous partition.
func WorkloadPartitions(spec WorkloadSpec, parts int) []*workload.Generator {
	return workload.Partitions(spec, parts)
}
