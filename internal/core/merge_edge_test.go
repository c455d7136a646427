package core

import (
	"context"
	"math"
	"testing"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// TestHBMergeExhaustivePlusReservoir exercises Figure 6 line 1 with a
// reservoir-kind partner: the exhaustive sample's values are re-fed into a
// resumed reservoir state.
func TestHBMergeExhaustivePlusReservoir(t *testing.T) {
	r := randx.New(20)
	cfg := smallCfg(64)
	const trials = 3000
	counts := make([]int64, 2048+50)
	for trial := 0; trial < trials; trial++ {
		// Force a reservoir sample: HB with badly under-declared N.
		hb := NewHB[int64](cfg, 64, r.Split())
		for v := int64(0); v < 2048; v++ {
			hb.Feed(v)
		}
		res, err := hb.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != ReservoirKind {
			t.Fatalf("setup kind %v", res.Kind)
		}
		ex := collectHB(t, cfg, 2048, 2048+50, r.Split())
		if ex.Kind != Exhaustive {
			t.Fatalf("setup kind %v", ex.Kind)
		}
		m, err := HBMerge(res, ex, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != ReservoirKind {
			t.Fatalf("merged kind %v", m.Kind)
		}
		if m.ParentSize != 2098 {
			t.Fatalf("parent %d", m.ParentSize)
		}
		if m.Size() != 64 {
			t.Fatalf("size %d, want the reservoir capacity preserved", m.Size())
		}
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	want := float64(trials) * 64 / 2098
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 7*math.Sqrt(want) {
			t.Errorf("element %d: %d inclusions, want ~%.1f", v, c, want)
		}
	}
}

// TestHBMergeFullBernoulliReroutesToSRS covers the guard for a Bernoulli
// sample that already holds >= nF values (possible after joins of
// duplicate-heavy samples): HBMerge must treat it as a conditional SRS.
func TestHBMergeFullBernoulliReroutesToSRS(t *testing.T) {
	r := randx.New(21)
	cfg := smallCfg(8) // nF = 8
	// Hand-construct a Bernoulli sample with 10 >= nF elements but compact
	// footprint within F (duplicates).
	h := histogram.New[int64](cfg.SizeModel)
	h.Insert(1, 5)
	h.Insert(2, 5)
	full := &Sample[int64]{
		Kind:       BernoulliKind,
		Hist:       h,
		ParentSize: 20,
		Q:          0.5,
		Config:     cfg,
	}
	ex := collectHR(t, cfg, 100, 104, r)
	if ex.Kind != Exhaustive {
		t.Fatalf("setup kind %v", ex.Kind)
	}
	m, err := HBMerge(full, ex, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != ReservoirKind {
		t.Fatalf("kind %v, want reservoir via SRS rerouting", m.Kind)
	}
	if m.ParentSize != 24 {
		t.Fatalf("parent %d", m.ParentSize)
	}
	if m.Size() > 10 {
		t.Fatalf("size %d", m.Size())
	}
}

// TestMergeManyMixedKinds merges a mixture of exhaustive, Bernoulli and
// reservoir samples through the k-way merge and validates the result.
func TestMergeManyMixedKinds(t *testing.T) {
	r := randx.New(22)
	cfg := smallCfg(128)
	samples := []*Sample[int64]{
		collectHR(t, cfg, 0, 50, r.Split()),        // exhaustive
		collectHB(t, cfg, 1000, 9000, r.Split()),   // bernoulli
		collectHR(t, cfg, 10000, 30000, r.Split()), // reservoir
		collectHR(t, cfg, 30000, 30040, r.Split()), // exhaustive
	}
	m, err := MergeK(context.Background(), samples, r.Split(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 50+8000+20000+40 {
		t.Fatalf("parent %d", m.ParentSize)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() > cfg.FootprintBytes {
		t.Fatalf("footprint %d", m.Footprint())
	}
}

// TestHRMergeEmptySide covers the degenerate k = 0 path.
func TestHRMergeEmptySide(t *testing.T) {
	r := randx.New(23)
	cfg := smallCfg(16)
	empty := &Sample[int64]{
		Kind:       BernoulliKind,
		Hist:       histogram.New[int64](cfg.SizeModel),
		ParentSize: 100,
		Q:          0.001,
		Config:     cfg,
	}
	other := collectHR(t, cfg, 0, 5000, r)
	m, err := HRMerge(empty, other, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 {
		t.Fatalf("size %d, want 0", m.Size())
	}
	if m.ParentSize != 5100 {
		t.Fatalf("parent %d", m.ParentSize)
	}
}

// TestMergeDuplicateHeavyPartitions drives the compact-pair arithmetic
// through merges: partitions whose histograms are a few high-count pairs.
func TestMergeDuplicateHeavyPartitions(t *testing.T) {
	r := randx.New(24)
	cfg := smallCfg(64)
	mk := func(val int64, n int64, src randx.Source) *Sample[int64] {
		hr := NewHR[int64](cfg, src)
		hr.FeedN(val, n)
		hr.FeedN(val+1, n)
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := mk(10, 50000, r.Split())
	s2 := mk(20, 30000, r.Split())
	m, err := HRMerge(s1, s2, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 160000 {
		t.Fatalf("parent %d", m.ParentSize)
	}
	if m.Kind != Exhaustive && m.Size() == 0 {
		t.Fatalf("degenerate merge: %v", m)
	}
	// Only the four values can appear.
	m.Hist.Each(func(v int64, c int64) {
		if v != 10 && v != 11 && v != 20 && v != 21 {
			t.Fatalf("alien value %d", v)
		}
	})
}

// TestResumeHBSeedsElementCounter checks that merging via re-feeding
// continues the element index from the partner's parent size (a silent
// correctness requirement for the reservoir skip distribution).
func TestResumeHBSeedsElementCounter(t *testing.T) {
	r := randx.New(25)
	cfg := smallCfg(32)
	// Reservoir partner of a large partition.
	hb := NewHB[int64](cfg, 32, r.Split())
	for v := int64(0); v < 4096; v++ {
		hb.Feed(v)
	}
	res, err := hb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ReservoirKind {
		t.Fatalf("setup kind %v", res.Kind)
	}
	resumed := resumeHB(res, 5000, r.Split())
	if resumed.Seen() != 4096 {
		t.Fatalf("resumed counter %d, want 4096", resumed.Seen())
	}
	if resumed.Phase() != PhaseReservoir {
		t.Fatalf("resumed phase %v", resumed.Phase())
	}
}

// TestMergeTreeParallelMatchesSerialSemantics merges the same partition set
// with the serial and parallel trees and checks both produce valid uniform
// samples with identical metadata; a race-detector run covers the
// synchronization.
func TestMergeTreeParallelMatchesSerialSemantics(t *testing.T) {
	r := randx.New(30)
	cfg := smallCfg(64)
	build := func() []*Sample[int64] {
		var ss []*Sample[int64]
		for p := int64(0); p < 13; p++ { // odd count exercises the carry
			ss = append(ss, collectHR(t, cfg, p*2000, (p+1)*2000, r.Split()))
		}
		return ss
	}
	serial, err := MergeTree(build(), HRMerge, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	par, err := MergeTreeParallel(build(), HRMerge, r.Split(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.ParentSize != serial.ParentSize || par.Size() != serial.Size() {
		t.Fatalf("parallel %v vs serial %v", par, serial)
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeTreeParallelDeterministic verifies scheduling independence: the
// same seed yields the same merged sample regardless of parallelism.
func TestMergeTreeParallelDeterministic(t *testing.T) {
	cfg := smallCfg(32)
	build := func(seed uint64) []*Sample[int64] {
		r := randx.New(seed)
		var ss []*Sample[int64]
		for p := int64(0); p < 8; p++ {
			ss = append(ss, collectHR(t, cfg, p*1000, (p+1)*1000, r.Split()))
		}
		return ss
	}
	run := func(parallelism int) *Sample[int64] {
		m, err := MergeTreeParallel(build(77), HRMerge, randx.New(99), parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := run(1)
	b := run(8)
	if !a.Hist.Equal(b.Hist) {
		t.Fatal("parallelism changed the merged sample for a fixed seed")
	}
}

// TestMergeTreeParallelUniformInclusion is the statistical acceptance test
// for the parallel merge path.
func TestMergeTreeParallelUniformInclusion(t *testing.T) {
	outer := randx.New(31)
	cfg := smallCfg(32)
	const n = 1600
	const trials = 1500
	counts := make([]int64, n)
	for trial := 0; trial < trials; trial++ {
		r := outer.Split()
		var ss []*Sample[int64]
		for p := int64(0); p < 8; p++ {
			ss = append(ss, collectHR(t, cfg, p*200, (p+1)*200, r.Split()))
		}
		m, err := MergeTreeParallel(ss, HRMerge, r, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	want := float64(trials) * 32 / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d: %d inclusions, want ~%.1f", v, c, want)
		}
	}
}

// TestMergeTreeParallelEmpty covers the error path.
func TestMergeTreeParallelEmpty(t *testing.T) {
	if _, err := MergeTreeParallel[int64](nil, HRMerge, randx.New(1), 0); err == nil {
		t.Fatal("empty input accepted")
	}
}
