package warehouse

import (
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
	"samplewh/internal/workload"
)

func newTestWarehouse(t *testing.T, alg Algorithm, nf int64) *Warehouse[int64] {
	t.Helper()
	w := New[int64](storage.NewMemStore[int64](), 42)
	cfg := DatasetConfig{Algorithm: alg, Core: core.ConfigForNF(nf)}
	if alg == AlgSB {
		cfg.SBRate = 0.05
	}
	if err := w.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	return w
}

// ingest samples the range [lo, hi) into the named partition.
func ingest(t *testing.T, w *Warehouse[int64], ds, part string, lo, hi int64) {
	t.Helper()
	smp, err := w.NewSampler(ds, hi-lo)
	if err != nil {
		t.Fatal(err)
	}
	for v := lo; v < hi; v++ {
		smp.Feed(v)
	}
	s, err := smp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn(ds, part, s); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDatasetValidation(t *testing.T) {
	w := New[int64](storage.NewMemStore[int64](), 1)
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("", cfg); err == nil {
		t.Error("empty name accepted")
	}
	if err := w.CreateDataset("a/b", cfg); err == nil {
		t.Error("slash in name accepted")
	}
	if err := w.CreateDataset("ok", cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateDataset("ok", cfg); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := w.CreateDataset("badalg", DatasetConfig{Algorithm: 99, Core: core.ConfigForNF(64)}); err == nil {
		t.Error("invalid algorithm accepted")
	}
	if err := w.CreateDataset("badsb", DatasetConfig{Algorithm: AlgSB, Core: core.ConfigForNF(64)}); err == nil {
		t.Error("SB without rate accepted")
	}
	if err := w.CreateDataset("badcore", DatasetConfig{Algorithm: AlgHR}); err == nil {
		t.Error("invalid core config accepted")
	}
}

func TestDefaultAlgorithmIsHR(t *testing.T) {
	w := New[int64](storage.NewMemStore[int64](), 1)
	if err := w.CreateDataset("d", DatasetConfig{Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	cfg, err := w.Config("d")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algorithm != AlgHR {
		t.Fatalf("default algorithm = %v", cfg.Algorithm)
	}
}

func TestRollInAndPartitions(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "day1", 0, 5000)
	ingest(t, w, "orders", "day2", 5000, 10000)
	parts, err := w.Partitions("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0] != "day1" || parts[1] != "day2" {
		t.Fatalf("partitions = %v", parts)
	}
	info, err := w.Info("orders", "day1")
	if err != nil {
		t.Fatal(err)
	}
	if info.ParentSize != 5000 || info.SampleSize != 64 || info.Kind != core.ReservoirKind {
		t.Fatalf("info = %+v", info)
	}
}

func TestRollInValidation(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "p1", 0, 1000)
	// Re-rolling an existing partition is an idempotent replace: same
	// position, new sample, no duplicate list entry.
	smp, _ := w.NewSampler("orders", 10)
	smp.Feed(1)
	s, _ := smp.Finalize()
	if err := w.RollIn("orders", "p1", s); err != nil {
		t.Errorf("idempotent re-roll-in: %v", err)
	}
	if parts, _ := w.Partitions("orders"); len(parts) != 1 || parts[0] != "p1" {
		t.Errorf("partitions after replay = %v", parts)
	}
	if got, err := w.PartitionSample("orders", "p1"); err != nil || got.ParentSize != 1 {
		t.Errorf("replay did not replace sample: %v, %v", got, err)
	}
	if err := w.RollIn("orders", "bad/id", s); err == nil {
		t.Error("slash in partition id accepted")
	}
	if err := w.RollIn("orders", "p2", nil); err == nil {
		t.Error("nil sample accepted")
	}
	if err := w.RollIn("nope", "p1", s); err == nil {
		t.Error("unknown data set accepted")
	}
	// Mismatched config.
	other := core.NewHR[int64](core.ConfigForNF(128), randx.New(7))
	other.Feed(1)
	os, _ := other.Finalize()
	if err := w.RollIn("orders", "p3", os); err == nil {
		t.Error("config mismatch accepted")
	}
}

func TestRollOut(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "day1", 0, 3000)
	ingest(t, w, "orders", "day2", 3000, 6000)
	if err := w.RollOut("orders", "day1"); err != nil {
		t.Fatal(err)
	}
	parts, _ := w.Partitions("orders")
	if len(parts) != 1 || parts[0] != "day2" {
		t.Fatalf("partitions after roll-out = %v", parts)
	}
	if _, err := w.PartitionSample("orders", "day1"); !storage.IsNotFound(err) {
		t.Fatalf("rolled-out sample still present: %v", err)
	}
	// Double roll-out is an idempotent no-op; a missing data set still errors.
	if err := w.RollOut("orders", "day1"); err != nil {
		t.Errorf("double roll-out: %v", err)
	}
	if parts, _ := w.Partitions("orders"); len(parts) != 1 {
		t.Errorf("partitions after replayed roll-out = %v", parts)
	}
	if err := w.RollOut("nope", "day1"); err == nil {
		t.Error("roll-out on unknown data set accepted")
	}
}

func TestMergedSampleAllPartitions(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 128)
	const per = 4000
	for i := int64(0); i < 4; i++ {
		ingest(t, w, "orders", string(rune('a'+i)), i*per, (i+1)*per)
	}
	m, err := w.MergedSample("orders")
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 4*per {
		t.Fatalf("parent = %d", m.ParentSize)
	}
	if m.Size() != 128 {
		t.Fatalf("size = %d", m.Size())
	}
	// Stored samples must remain intact (merge must not consume them).
	s, err := w.PartitionSample("orders", "a")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 128 {
		t.Fatalf("stored sample consumed: size %d", s.Size())
	}
}

func TestMergedSampleSubset(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	ingest(t, w, "orders", "p0", 0, 2000)
	ingest(t, w, "orders", "p1", 2000, 4000)
	ingest(t, w, "orders", "p2", 4000, 6000)
	m, err := w.MergedSample("orders", "p0", "p2")
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 4000 {
		t.Fatalf("parent = %d", m.ParentSize)
	}
	// No values from p1's range may appear.
	m.Hist.Each(func(v int64, c int64) {
		if v >= 2000 && v < 4000 {
			t.Fatalf("value %d from excluded partition present", v)
		}
	})
	if _, err := w.MergedSample("orders", "p0", "p0"); err == nil {
		t.Error("duplicate partition in merge set accepted")
	}
	if _, err := w.MergedSample("orders", "nope"); err == nil {
		t.Error("unknown partition accepted")
	}
}

func TestMergedSampleErrors(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	if _, err := w.MergedSample("orders"); err == nil {
		t.Error("merge of empty data set accepted")
	}
	if _, err := w.MergedSample("nope"); err == nil {
		t.Error("unknown data set accepted")
	}
}

func TestWindow(t *testing.T) {
	w := newTestWarehouse(t, AlgHR, 64)
	for i := int64(0); i < 5; i++ {
		ingest(t, w, "orders", string(rune('a'+i)), i*1000, (i+1)*1000)
	}
	m, err := w.Window("orders", 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 2000 {
		t.Fatalf("window parent = %d", m.ParentSize)
	}
	// Only values from the last two partitions.
	m.Hist.Each(func(v int64, c int64) {
		if v < 3000 {
			t.Fatalf("window contains old value %d", v)
		}
	})
	// Window larger than partition count = everything.
	m, err = w.Window("orders", 99)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 5000 {
		t.Fatalf("big window parent = %d", m.ParentSize)
	}
	if _, err := w.Window("orders", 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := w.Window("nope", 1); err == nil {
		t.Error("unknown data set accepted")
	}
}

func TestHBWarehouseEndToEnd(t *testing.T) {
	w := newTestWarehouse(t, AlgHB, 256)
	const per = 8192
	for i := int64(0); i < 8; i++ {
		ingest(t, w, "orders", string(rune('a'+i)), i*per, (i+1)*per)
	}
	m, err := w.MergedSample("orders")
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 8*per {
		t.Fatalf("parent = %d", m.ParentSize)
	}
	if m.Size() == 0 || m.Size() >= 256 {
		t.Fatalf("HB merged size = %d, want in (0, 256)", m.Size())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHBSamplerRequiresExpectedN(t *testing.T) {
	w := newTestWarehouse(t, AlgHB, 64)
	if _, err := w.NewSampler("orders", 0); err == nil {
		t.Error("AlgHB sampler without expectedN accepted")
	}
	if _, err := w.NewSampler("nope", 10); err == nil {
		t.Error("unknown data set accepted")
	}
}

func TestSBWarehouseEndToEnd(t *testing.T) {
	w := newTestWarehouse(t, AlgSB, 1<<20)
	const per = 10000
	for i := int64(0); i < 4; i++ {
		ingest(t, w, "orders", string(rune('a'+i)), i*per, (i+1)*per)
	}
	m, err := w.MergedSample("orders")
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != core.BernoulliKind || m.Q != 0.05 {
		t.Fatalf("kind=%v q=%v", m.Kind, m.Q)
	}
	want := 0.05 * 4 * per
	if math.Abs(float64(m.Size())-want) > 6*math.Sqrt(want) {
		t.Fatalf("SB merged size %d, want ~%.0f", m.Size(), want)
	}
}

func TestWarehouseMergedSampleUniformity(t *testing.T) {
	// Statistical check through the whole warehouse stack: repeated merges
	// must include every element with equal probability.
	const n = 1200
	const parts = 4
	const trials = 1500
	counts := make([]int64, n)
	var sizeTotal int64
	for trial := 0; trial < trials; trial++ {
		w := New[int64](storage.NewMemStore[int64](), uint64(trial)+1)
		if err := w.CreateDataset("d", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(32)}); err != nil {
			t.Fatal(err)
		}
		for _, r := range workload.Ranges(n, parts) {
			smp, err := w.NewSampler("d", r[1]-r[0])
			if err != nil {
				t.Fatal(err)
			}
			for v := r[0]; v < r[1]; v++ {
				smp.Feed(v)
			}
			s, err := smp.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.RollIn("d", string(rune('a'+r[0]/300)), s); err != nil {
				t.Fatal(err)
			}
		}
		m, err := w.MergedSample("d")
		if err != nil {
			t.Fatal(err)
		}
		sizeTotal += m.Size()
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	meanRate := float64(sizeTotal) / float64(trials*n)
	for v, c := range counts {
		got := float64(c) / trials
		se := math.Sqrt(meanRate / trials)
		if math.Abs(got-meanRate) > 7*se {
			t.Errorf("element %d rate %v, want %v", v, got, meanRate)
		}
	}
}

func TestDatasetsListing(t *testing.T) {
	w := New[int64](storage.NewMemStore[int64](), 1)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := w.CreateDataset(n, DatasetConfig{Core: core.ConfigForNF(16)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := w.Datasets()
	if len(ds) != 3 || ds[0] != "alpha" || ds[1] != "mid" || ds[2] != "zeta" {
		t.Fatalf("Datasets = %v", ds)
	}
	if _, err := w.Config("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Config("nope"); err == nil {
		t.Error("unknown data set config accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgHB.String() != "HB" || AlgHR.String() != "HR" || AlgSB.String() != "SB" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm String empty")
	}
}

func TestWarehouseWithFileStore(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	w := New[int64](st, 7)
	if err := w.CreateDataset("d", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}); err != nil {
		t.Fatal(err)
	}
	smp, err := w.NewSampler("d", 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 3000; v++ {
		smp.Feed(v)
	}
	s, err := smp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn("d", "p1", s); err != nil {
		t.Fatal(err)
	}
	m, err := w.MergedSample("d")
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 64 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestGenericStringWarehouse(t *testing.T) {
	// The warehouse is generic: run the full life cycle over string values.
	w := New[string](storage.NewMemStore[string](), 9)
	cfg := core.Config{
		FootprintBytes: 24 * 64, // 64 values of up to 24 bytes
		SizeModel:      histogram.SizeModel{ValueBytes: 24, CountBytes: 4},
		ExceedProb:     0.001,
	}
	if err := w.CreateDataset("words", DatasetConfig{Algorithm: AlgHR, Core: cfg}); err != nil {
		t.Fatal(err)
	}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for p := 0; p < 3; p++ {
		smp, err := w.NewSampler("words", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			smp.Feed(words[(i+p)%len(words)])
		}
		s, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RollIn("words", string(rune('a'+p)), s); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.MergedSample("words")
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != 15000 {
		t.Fatalf("parent %d", m.ParentSize)
	}
	if m.Kind != core.Exhaustive {
		t.Fatalf("5 distinct strings should merge exhaustively, got %v", m.Kind)
	}
	if m.Hist.Count("alpha") != 3000 {
		t.Fatalf("count(alpha) = %d", m.Hist.Count("alpha"))
	}
}
