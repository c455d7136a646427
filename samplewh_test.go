package samplewh

import (
	"math"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	cfg := ConfigForNF(512)
	hr := NewHRSampler[int64](cfg, 1)
	hb := NewHBSampler[int64](cfg, 20000, 2)
	sb := NewSBSampler[int64](cfg, 0.02, 3)
	for v := int64(0); v < 20000; v++ {
		hr.Feed(v)
		hb.Feed(v)
		sb.Feed(v)
	}
	shr, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	shb, err := hb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ssb, err := sb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if shr.Kind != ReservoirKind || shr.Size() != 512 {
		t.Fatalf("HR: %v", shr)
	}
	if shb.Kind != BernoulliKind {
		t.Fatalf("HB: %v", shb)
	}
	if ssb.Kind != BernoulliKind || ssb.Q != 0.02 {
		t.Fatalf("SB: %v", ssb)
	}
	for _, s := range []*Sample[int64]{shr, shb} {
		if s.Footprint() > cfg.FootprintBytes {
			t.Fatalf("footprint bound violated: %v", s)
		}
	}
}

func TestFacadeMergeFlow(t *testing.T) {
	cfg := ConfigForNF(256)
	rng := NewRNG(4)
	var samples []*Sample[int64]
	for p := int64(0); p < 6; p++ {
		hr := NewHRSampler[int64](cfg, uint64(10+p))
		for v := p * 5000; v < (p+1)*5000; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	m, err := MergeTree(samples, HRMerge[int64], rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 30000 || m.Size() != 256 {
		t.Fatalf("merged: %v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGenericMergeDispatch(t *testing.T) {
	cfg := ConfigForNF(128)
	rng := NewRNG(5)
	hb := NewHBSampler[int64](cfg, 10000, 6)
	hr := NewHRSampler[int64](cfg, 7)
	for v := int64(0); v < 10000; v++ {
		hb.Feed(v)
		hr.Feed(10000 + v)
	}
	s1, _ := hb.Finalize()
	s2, _ := hr.Finalize()
	m, err := HBMerge(s1, s2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 20000 {
		t.Fatalf("parent = %d", m.ParentSize)
	}
}

func TestFacadeWarehouseFlow(t *testing.T) {
	wh := NewWarehouse(NewMemStore(), 8)
	if err := wh.CreateDataset("t", DatasetConfig{Algorithm: AlgHR, Core: ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	smp, err := wh.NewSampler("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 4000; v++ {
		smp.Feed(v)
	}
	s, err := smp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.RollIn("t", "p1", s); err != nil {
		t.Fatal(err)
	}
	m, err := wh.MergedSample("t")
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 64 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestFacadeFileStore(t *testing.T) {
	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hr := NewHRSampler[int64](ConfigForNF(64), 9)
	for v := int64(0); v < 2000; v++ {
		hr.Feed(v)
	}
	s, _ := hr.Finalize()
	if err := st.Put("k", s); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != s.Size() {
		t.Fatal("file store round trip lost data")
	}
	if _, err := st.Get("missing"); !IsNotFound(err) {
		t.Fatal("IsNotFound broken")
	}
}

func TestFacadeEstimators(t *testing.T) {
	hr := NewHRSampler[int64](ConfigForNF(2048), 10)
	for v := int64(0); v < 50000; v++ {
		hr.Feed(v % 100)
	}
	s, _ := hr.Finalize()
	e := NewEstimator(s)
	avg, err := e.Avg(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg.Value-49.5) > 5*avg.StdErr+0.5 {
		t.Fatalf("avg %v", avg)
	}
	oe, err := NewOrderedEstimator(s, func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	med, err := oe.Median()
	if err != nil {
		t.Fatal(err)
	}
	if med < 40 || med > 60 {
		t.Fatalf("median %d", med)
	}
	r, err := ValueSetResemblance(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jaccard != 1 {
		t.Fatalf("self-jaccard %v", r.Jaccard)
	}
}

func TestFacadeQRates(t *testing.T) {
	q := QApprox(100000, 0.001, 8192)
	qe := QExact(100000, 0.001, 8192, 1e-12)
	if math.Abs(q-qe)/qe > 0.03 {
		t.Fatalf("approx %v vs exact %v", q, qe)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	spec := WorkloadSpec{Dist: WorkloadUnique, N: 100, Seed: 1}
	g := NewWorkload(spec)
	seen := map[int64]bool{}
	for {
		v, ok := g.Next()
		if !ok {
			break
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("%d distinct values", len(seen))
	}
	parts := WorkloadPartitions(spec, 4)
	if len(parts) != 4 {
		t.Fatalf("%d partitions", len(parts))
	}
}

func TestFacadeStreamHelpers(t *testing.T) {
	cfg := ConfigForNF(32)
	rng := NewRNG(11)
	sp := NewSplitter(2, func(i int, _ int64) Sampler[int64] {
		return NewHRSampler[int64](cfg, rng.Uint64())
	})
	for v := int64(0); v < 5000; v++ {
		sp.Feed(v)
	}
	ss, err := sp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("lanes %d", len(ss))
	}
	tp := NewTemporalPartitioner(1000, func(i int, _ int64) Sampler[int64] {
		return NewHRSampler[int64](cfg, rng.Uint64())
	})
	for v := int64(0); v < 2500; v++ {
		if err := tp.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := tp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("partitions %d", len(ps))
	}
	rp, err := NewRatioPartitioner(0.001, 32, func(i int, _ int64) Sampler[int64] {
		return NewHRSampler[int64](cfg, rng.Uint64())
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 100000; v++ {
		if err := rp.Feed(v); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := rp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 2 {
		t.Fatalf("ratio partitions %d", len(rs))
	}
}

func TestFacadeConciseSampler(t *testing.T) {
	c := NewConciseSampler[int64](ConfigForNF(64), 0, 12)
	for v := int64(0); v < 10000; v++ {
		c.Feed(v)
	}
	s, err := c.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Footprint() > ConfigForNF(64).FootprintBytes {
		t.Fatalf("footprint %d", s.Footprint())
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() int64 {
		hr := NewHRSampler[int64](ConfigForNF(64), 99)
		for v := int64(0); v < 5000; v++ {
			hr.Feed(v)
		}
		s, _ := hr.Finalize()
		var sum int64
		s.Hist.Each(func(v int64, c int64) { sum += v * c })
		return sum
	}
	if run() != run() {
		t.Fatal("same seed produced different samples")
	}
}

func TestFacadeDiffEstimate(t *testing.T) {
	d := DiffEstimate(Estimate{Value: 9, StdErr: 3}, Estimate{Value: 5, StdErr: 4})
	if d.Value != 4 || math.Abs(d.StdErr-5) > 1e-12 {
		t.Fatalf("diff %+v", d)
	}
}

func TestFacadeGroupBy(t *testing.T) {
	s := NewHRSampler[int64](ConfigForNF(4096), 9)
	for i := 0; i < 900; i++ {
		s.Feed(int64(i % 3))
	}
	fin, _ := s.Finalize()
	groups, err := GroupBy(NewEstimator(fin), func(v int64) int64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
}

func TestFacadeGenericWarehouseStrings(t *testing.T) {
	w := NewGenericWarehouse[string](NewGenericMemStore[string](), 3)
	cfg := Config{
		FootprintBytes: 16 * 64,
		SizeModel:      SizeModel{ValueBytes: 16, CountBytes: 4},
		ExceedProb:     0.001,
	}
	if err := w.CreateDataset("d", DatasetConfig{Algorithm: AlgHR, Core: cfg}); err != nil {
		t.Fatal(err)
	}
	smp, err := w.NewSampler("d", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		smp.Feed([]string{"x", "y", "z"}[i%3])
	}
	s, err := smp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn("d", "p", s); err != nil {
		t.Fatal(err)
	}
	m, err := w.MergedSample("d")
	if err != nil {
		t.Fatal(err)
	}
	if m.Hist.Count("x") == 0 {
		t.Fatal("string warehouse lost data")
	}
}

func TestFacadeQueryPath(t *testing.T) {
	wh := NewWarehouse(NewMemStore(), 8)
	if err := wh.CreateDataset("t", DatasetConfig{Algorithm: AlgHR, Core: ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		smp, err := wh.NewSampler("t", 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(p * 1000); v < int64(p+1)*1000; v++ {
			smp.Feed(v)
		}
		s, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.RollIn("t", "p"+string(rune('0'+p)), s); err != nil {
			t.Fatal(err)
		}
	}
	wh.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20, MergeWorkers: 2})
	for i := 0; i < 3; i++ {
		m, err := wh.MergedSample("t")
		if err != nil {
			t.Fatal(err)
		}
		if m.Size() != 64 {
			t.Fatalf("size = %d", m.Size())
		}
	}
	st := wh.CacheStats()
	if st.Entries != 4 || st.Hits < 8 {
		t.Fatalf("cache stats = %+v, want 4 entries and >= 8 hits", st)
	}
}

func TestFacadeMergeTreeParallelIdentical(t *testing.T) {
	build := func() []*Sample[int64] {
		var samples []*Sample[int64]
		for p := 0; p < 5; p++ {
			hr := NewHRSampler[int64](ConfigForNF(32), uint64(p+1))
			for v := int64(0); v < 500; v++ {
				hr.Feed(v)
			}
			s, err := hr.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, s)
		}
		return samples
	}
	serial, err := MergeTree(build(), HRMerge[int64], NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	par, err := MergeTreeParallel(build(), HRMerge[int64], NewRNG(99), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Hist.Equal(par.Hist) || serial.ParentSize != par.ParentSize {
		t.Fatal("parallel merge diverged from sequential merge")
	}
}
