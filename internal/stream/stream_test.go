package stream

import (
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
	"samplewh/internal/workload"
)

func TestSampleParallelProducesPerPartitionSamples(t *testing.T) {
	rng := randx.New(1)
	cfg := core.ConfigForNF(64)
	spec := workload.Spec{Dist: workload.Unique, N: 1 << 15, Seed: 3}
	gens := workload.Partitions(spec, 8)
	// Thread-safe factory: pre-generate sources.
	srcs := make([]*randx.RNG, 8)
	for i := range srcs {
		srcs[i] = rng.Split()
	}
	samples, err := SampleParallel(gens, func(i int, n int64) core.Sampler[int64] {
		return core.NewHR[int64](cfg, srcs[i])
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("%d samples", len(samples))
	}
	var parentTotal int64
	for i, s := range samples {
		if s.Size() != 64 {
			t.Fatalf("partition %d size %d", i, s.Size())
		}
		parentTotal += s.ParentSize
	}
	if parentTotal != 1<<15 {
		t.Fatalf("parents sum to %d", parentTotal)
	}
	// Merge into one uniform sample of everything.
	m, err := core.MergeTree(samples, core.HRMerge, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 1<<15 || m.Size() != 64 {
		t.Fatalf("merged: parent=%d size=%d", m.ParentSize, m.Size())
	}
}

func TestSampleParallelEmptyInput(t *testing.T) {
	if _, err := SampleParallel(nil, nil, 1); err == nil {
		t.Fatal("empty generator list accepted")
	}
}

func TestSampleParallelDefaultParallelism(t *testing.T) {
	rng := randx.New(2)
	spec := workload.Spec{Dist: workload.Uniform, N: 4096, Seed: 9}
	gens := workload.Partitions(spec, 4)
	srcs := make([]*randx.RNG, 4)
	for i := range srcs {
		srcs[i] = rng.Split()
	}
	samples, err := SampleParallel(gens, func(i int, n int64) core.Sampler[int64] {
		return core.NewHR[int64](core.ConfigForNF(32), srcs[i])
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("%d samples", len(samples))
	}
}

func TestSplitterRoundRobin(t *testing.T) {
	rng := randx.New(3)
	cfg := core.ConfigForNF(1 << 16) // large: stays exhaustive
	sp := NewSplitter(3, func(i int, _ int64) core.Sampler[int64] {
		return core.NewHR[int64](cfg, rng.Split())
	})
	for v := int64(0); v < 9; v++ {
		sp.Feed(v)
	}
	if sp.Fed() != 9 {
		t.Fatalf("Fed = %d", sp.Fed())
	}
	samples, err := sp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("%d lanes", len(samples))
	}
	// Lane 0 got values 0,3,6; exhaustive so checkable exactly.
	for lane, want := range [][]int64{{0, 3, 6}, {1, 4, 7}, {2, 5, 8}} {
		if samples[lane].ParentSize != 3 {
			t.Fatalf("lane %d parent %d", lane, samples[lane].ParentSize)
		}
		for _, v := range want {
			if samples[lane].Hist.Count(v) != 1 {
				t.Fatalf("lane %d missing value %d", lane, v)
			}
		}
	}
	// Lanes are disjoint; merging yields a sample of all 9 values.
	m, err := core.MergeTree(samples, core.HRMerge, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 9 || m.Kind != core.Exhaustive {
		t.Fatalf("merged parent=%d kind=%v", m.ParentSize, m.Kind)
	}
}

func TestSplitterPanicsOnZeroLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("w=0 did not panic")
		}
	}()
	NewSplitter[int64](0, nil)
}

func TestRatioPartitionerMaintainsFraction(t *testing.T) {
	// With nF = 64 and min fraction 1/32, each partition must be finalized
	// by the time ~2048 elements have been seen.
	rng := randx.New(6)
	cfg := core.ConfigForNF(64)
	rp, err := NewRatioPartitioner(1.0/32, 64, func(i int, n int64) core.Sampler[int64] {
		return core.NewHR[int64](cfg, rng.Split())
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 20000
	for v := int64(0); v < total; v++ {
		if err := rp.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := rp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 8 {
		t.Fatalf("only %d partitions over %d elements", len(samples), total)
	}
	var parentSum int64
	for i, s := range samples {
		parentSum += s.ParentSize
		frac := float64(s.Size()) / float64(s.ParentSize)
		// Every finalized partition keeps fraction >= minFraction (up to
		// the one-element overshoot at the cut).
		if i < len(samples)-1 && frac < 1.0/32-0.002 {
			t.Errorf("partition %d fraction %v below bound", i, frac)
		}
	}
	if parentSum != total {
		t.Fatalf("parents sum to %d, want %d", parentSum, total)
	}
}

func TestRatioPartitionerErrors(t *testing.T) {
	rng := randx.New(7)
	factory := func(i int, n int64) core.Sampler[int64] {
		return core.NewHR[int64](core.ConfigForNF(16), rng.Split())
	}
	if _, err := NewRatioPartitioner(0, 1, factory); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := NewRatioPartitioner(1.5, 1, factory); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestRatioPartitionerMergeable(t *testing.T) {
	// The per-partition samples from adaptive partitioning must merge into
	// one uniform sample of the whole stream with correct total parent.
	rng := randx.New(8)
	cfg := core.ConfigForNF(32)
	rp, err := NewRatioPartitioner(1.0/64, 32, func(i int, n int64) core.Sampler[int64] {
		return core.NewHR[int64](cfg, rng.Split())
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10000
	for v := int64(0); v < total; v++ {
		if err := rp.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := rp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.MergeTree(samples, core.HRMerge, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != total {
		t.Fatalf("merged parent %d", m.ParentSize)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitStreamStatisticalUniformity(t *testing.T) {
	// Split + per-lane HR + merge must give every stream element the same
	// inclusion probability.
	const n = 900
	const lanes = 3
	const trials = 2000
	counts := make([]int64, n)
	outer := randx.New(9)
	for trial := 0; trial < trials; trial++ {
		rng := outer.Split()
		cfg := core.ConfigForNF(16)
		sp := NewSplitter(lanes, func(i int, _ int64) core.Sampler[int64] {
			return core.NewHR[int64](cfg, rng.Split())
		})
		for v := int64(0); v < n; v++ {
			sp.Feed(v)
		}
		samples, err := sp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.MergeTree(samples, core.HRMerge, rng)
		if err != nil {
			t.Fatal(err)
		}
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	mean := float64(total) / n
	for v, c := range counts {
		if math.Abs(float64(c)-mean) > 6*math.Sqrt(mean) {
			t.Errorf("element %d included %d times, mean %v", v, c, mean)
		}
	}
}
