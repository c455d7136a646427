package samplewh

import (
	"context"
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/storage"
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
	if shr.Kind != core.ReservoirKind || shr.Size() != 512 {
		t.Fatalf("HR: %v", shr)
	}
	if shb.Kind != core.BernoulliKind {
		t.Fatalf("HB: %v", shb)
	}
	if ssb.Kind != core.BernoulliKind || ssb.Q != 0.02 {
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

func TestFacadeWarehouseFlow(t *testing.T) {
	wh := NewWarehouse(NewMemStore(), 8)
	if err := wh.CreateDataset("t", DatasetConfig{Algorithm: AlgHR, Core: ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	smp, err := wh.NewPartitionSampler("t", "p1", 0)
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
	m, err := wh.MergedSampleContext(context.Background(), "t")
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
	if _, err := st.Get("missing"); !storage.IsNotFound(err) {
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

func TestFacadeQueryPath(t *testing.T) {
	wh := NewWarehouse(NewMemStore(), 8)
	if err := wh.CreateDataset("t", DatasetConfig{Algorithm: AlgHR, Core: ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		id := "p" + string(rune('0'+p))
		smp, err := wh.NewPartitionSampler("t", id, 0)
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
		if err := wh.RollIn("t", id, s); err != nil {
			t.Fatal(err)
		}
	}
	wh.SetQueryConfig(QueryConfig{CacheBytes: 1 << 20, MergeWorkers: 2})
	for i := 0; i < 3; i++ {
		m, err := wh.MergedSampleContext(context.Background(), "t")
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
