// Package stream implements the data-flow side of the sample warehouse
// (paper §2 and Figure 1): splitting a data set across parallel samplers
// ("the incoming stream could be split over a number of machines"), slicing
// a stream temporally (one partition per day), and partitioning on-the-fly
// based on the sampled-to-seen ratio ("we wait until the ratio of sampled
// data to observed parent data hits the specified lower bound, at which
// point we finalize the current data partition ... and begin a new one").
//
// Everything is generic over the sampled value type V, matching core and
// warehouse; SampleParallel remains the int64 convenience entry point over
// workload generators (the paper's evaluation data type).
package stream

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/workload"
)

// partitionerObs bundles a stream partitioner's metric handles; the zero
// value is the no-op bundle.
type partitionerObs struct {
	reg  *obs.Registry
	cuts *obs.Counter // stream.partitions_cut
}

// newPartitionerObs caches the handles; nil registry → no-op bundle.
func newPartitionerObs(r *obs.Registry) partitionerObs {
	return partitionerObs{reg: r, cuts: r.Counter("stream.partitions_cut")}
}

// instrumentSampler routes a sampler's metrics into reg when the sampler
// supports instrumentation (all core samplers do). Nil reg is a no-op.
func instrumentSampler[V cmp.Ordered](s core.Sampler[V], reg *obs.Registry) {
	if reg == nil {
		return
	}
	if in, ok := s.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

// SamplerFactory builds the sampler for partition index i covering
// expectedN elements.
type SamplerFactory[V cmp.Ordered] func(i int, expectedN int64) core.Sampler[V]

// Source is one partition's finite stream of values: Len reports the
// expected element count (0 when unknown) and Next yields values until
// exhausted. *workload.Generator satisfies Source[int64].
type Source[V any] interface {
	Len() int64
	Next() (V, bool)
}

// ParallelResult pairs a partition's finalized sample with its index.
type ParallelResult[V cmp.Ordered] struct {
	Index  int
	Sample *core.Sample[V]
	Err    error
}

// SampleParallel samples every generator concurrently — one sampler per
// partition, at most parallelism goroutines in flight (0 selects
// GOMAXPROCS) — and returns the finalized samples in partition order. This
// simulates the paper's cluster: each partition of the divided batch or
// split stream is sampled by an independent process.
func SampleParallel(gens []*workload.Generator, factory SamplerFactory[int64], parallelism int) ([]*core.Sample[int64], error) {
	srcs := make([]Source[int64], len(gens))
	for i, g := range gens {
		srcs[i] = g
	}
	return SampleParallelFrom(srcs, factory, parallelism)
}

// SampleParallelFrom is SampleParallel over any value type: each source is
// fed through its own sampler, at most parallelism at a time.
func SampleParallelFrom[V cmp.Ordered](sources []Source[V], factory SamplerFactory[V], parallelism int) ([]*core.Sample[V], error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("stream: no generators")
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	results := make([]ParallelResult[V], len(sources))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, g := range sources {
		wg.Add(1)
		go func(i int, g Source[V]) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			smp := factory(i, g.Len())
			for {
				v, ok := g.Next()
				if !ok {
					break
				}
				smp.Feed(v)
			}
			s, err := smp.Finalize()
			results[i] = ParallelResult[V]{Index: i, Sample: s, Err: err}
		}(i, g)
	}
	wg.Wait()
	out := make([]*core.Sample[V], len(sources))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("stream: partition %d: %w", i, r.Err)
		}
		out[i] = r.Sample
	}
	return out, nil
}

// Splitter distributes one incoming stream of values round-robin across w
// parallel samplers — the "split the stream over a number of machines"
// scenario. Because the sub-streams are disjoint, each sampler's output is a
// uniform sample of its sub-stream and the samples can be merged into a
// uniform sample of everything.
type Splitter[V cmp.Ordered] struct {
	samplers []core.Sampler[V]
	next     int
	fed      int64

	items *obs.Counter   // stream.split.items
	lanes []*obs.Counter // stream.lane.<i>.items (nil entries when uninstrumented)
}

// NewSplitter builds a splitter over w samplers created by factory.
func NewSplitter[V cmp.Ordered](w int, factory SamplerFactory[V]) *Splitter[V] {
	if w < 1 {
		panic(fmt.Sprintf("stream: NewSplitter with w = %d < 1", w))
	}
	sp := &Splitter[V]{
		samplers: make([]core.Sampler[V], w),
		lanes:    make([]*obs.Counter, w),
	}
	for i := range sp.samplers {
		sp.samplers[i] = factory(i, 0)
	}
	return sp
}

// Instrument routes the splitter's metrics into reg: the total item count,
// one per-lane item counter, and the lane samplers themselves. Call it
// before the first Feed; a nil registry leaves the splitter uninstrumented.
func (sp *Splitter[V]) Instrument(reg *obs.Registry) {
	sp.items = reg.Counter("stream.split.items")
	for i, s := range sp.samplers {
		sp.lanes[i] = reg.Counter(fmt.Sprintf("stream.lane.%d.items", i))
		instrumentSampler(s, reg)
	}
}

// Feed routes one value to the next sampler in round-robin order.
func (sp *Splitter[V]) Feed(v V) {
	sp.samplers[sp.next].Feed(v)
	sp.items.Inc()
	sp.lanes[sp.next].Inc()
	sp.next = (sp.next + 1) % len(sp.samplers)
	sp.fed++
}

// Fed returns the number of values routed so far.
func (sp *Splitter[V]) Fed() int64 { return sp.fed }

// Finalize finalizes every sub-stream sampler and returns the samples.
func (sp *Splitter[V]) Finalize() ([]*core.Sample[V], error) {
	out := make([]*core.Sample[V], len(sp.samplers))
	for i, s := range sp.samplers {
		smp, err := s.Finalize()
		if err != nil {
			return nil, fmt.Errorf("stream: splitter lane %d: %w", i, err)
		}
		out[i] = smp
	}
	return out, nil
}

// TemporalPartitioner cuts a stream into fixed-length partitions (e.g. one
// per day) and samples each independently, so that daily samples can later
// be combined into weekly, monthly or yearly samples (paper §2).
type TemporalPartitioner[V cmp.Ordered] struct {
	every   int64
	factory SamplerFactory[V]
	cur     core.Sampler[V]
	curIdx  int
	inCur   int64
	done    []*core.Sample[V]
	o       partitionerObs
}

// NewTemporalPartitioner cuts a new partition after every `every` values.
func NewTemporalPartitioner[V cmp.Ordered](every int64, factory SamplerFactory[V]) *TemporalPartitioner[V] {
	if every < 1 {
		panic(fmt.Sprintf("stream: NewTemporalPartitioner with every = %d < 1", every))
	}
	tp := &TemporalPartitioner[V]{every: every, factory: factory}
	tp.cur = factory(0, every)
	return tp
}

// Instrument routes the partitioner's metrics into reg, and instruments the
// current and all future partition samplers. Call it before the first Feed;
// a nil registry is a no-op.
func (tp *TemporalPartitioner[V]) Instrument(reg *obs.Registry) {
	tp.o = newPartitionerObs(reg)
	instrumentSampler(tp.cur, reg)
}

// Feed processes one value, cutting a partition boundary when due.
func (tp *TemporalPartitioner[V]) Feed(v V) error {
	tp.cur.Feed(v)
	tp.inCur++
	if tp.inCur >= tp.every {
		return tp.cut()
	}
	return nil
}

// cut finalizes the current partition and opens the next.
func (tp *TemporalPartitioner[V]) cut() error {
	s, err := tp.cur.Finalize()
	if err != nil {
		return fmt.Errorf("stream: temporal cut: %w", err)
	}
	tp.done = append(tp.done, s)
	tp.o.cuts.Inc()
	tp.curIdx++
	tp.cur = tp.factory(tp.curIdx, tp.every)
	instrumentSampler(tp.cur, tp.o.reg)
	tp.inCur = 0
	return nil
}

// Finalize closes the in-progress partition (if non-empty) and returns all
// partition samples in temporal order.
func (tp *TemporalPartitioner[V]) Finalize() ([]*core.Sample[V], error) {
	if tp.inCur > 0 {
		if err := tp.cut(); err != nil {
			return nil, err
		}
	}
	return tp.done, nil
}

// RatioPartitioner implements the paper's on-the-fly partitioning rule for
// fluctuating arrival rates: maintain a bounded-footprint sample of the
// current partition, and when the ratio of sampled data to observed parent
// data falls to the specified lower bound, finalize the partition (and its
// sample) and begin a new one. This keeps every partition's sampling
// fraction at or above MinFraction while the footprint stays bounded.
type RatioPartitioner[V cmp.Ordered] struct {
	minFraction float64
	minSize     int64 // grace period before the ratio is enforced
	factory     SamplerFactory[V]
	cur         interface {
		core.Sampler[V]
		SampleSize() int64
	}
	curIdx int
	done   []*core.Sample[V]
	o      partitionerObs
}

// NewRatioPartitioner cuts a partition whenever sampled/seen would drop
// below minFraction (checked once at least minSize elements have been
// seen; minSize <= 0 selects 1). The factory must build samplers exposing
// SampleSize (HB, HR, SB and friends all do).
func NewRatioPartitioner[V cmp.Ordered](minFraction float64, minSize int64, factory SamplerFactory[V]) (*RatioPartitioner[V], error) {
	if minFraction <= 0 || minFraction > 1 {
		return nil, fmt.Errorf("stream: min fraction %v outside (0,1]", minFraction)
	}
	if minSize <= 0 {
		minSize = 1
	}
	rp := &RatioPartitioner[V]{minFraction: minFraction, minSize: minSize, factory: factory}
	if err := rp.open(); err != nil {
		return nil, err
	}
	return rp, nil
}

// Instrument routes the partitioner's metrics into reg, and instruments the
// current and all future partition samplers. Call it before the first Feed;
// a nil registry is a no-op.
func (rp *RatioPartitioner[V]) Instrument(reg *obs.Registry) {
	rp.o = newPartitionerObs(reg)
	instrumentSampler(rp.cur, reg)
}

// open starts the next partition's sampler.
func (rp *RatioPartitioner[V]) open() error {
	s := rp.factory(rp.curIdx, 0)
	sized, ok := s.(interface {
		core.Sampler[V]
		SampleSize() int64
	})
	if !ok {
		return fmt.Errorf("stream: sampler %T does not expose SampleSize", s)
	}
	rp.cur = sized
	instrumentSampler[V](sized, rp.o.reg)
	return nil
}

// Feed processes one value; it may finalize the current partition.
func (rp *RatioPartitioner[V]) Feed(v V) error {
	rp.cur.Feed(v)
	seen := rp.cur.Seen()
	if seen < rp.minSize {
		return nil
	}
	if float64(rp.cur.SampleSize()) < rp.minFraction*float64(seen) {
		s, err := rp.cur.Finalize()
		if err != nil {
			return fmt.Errorf("stream: ratio cut: %w", err)
		}
		rp.done = append(rp.done, s)
		rp.o.cuts.Inc()
		rp.curIdx++
		return rp.open()
	}
	return nil
}

// Finalize closes the in-progress partition (if non-empty) and returns all
// partition samples in order.
func (rp *RatioPartitioner[V]) Finalize() ([]*core.Sample[V], error) {
	if rp.cur.Seen() > 0 {
		s, err := rp.cur.Finalize()
		if err != nil {
			return nil, err
		}
		rp.done = append(rp.done, s)
		rp.o.cuts.Inc()
	}
	return rp.done, nil
}

// Partitions returns the number of completed partitions so far.
func (rp *RatioPartitioner[V]) Partitions() int { return len(rp.done) }
