package samplewh

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestIntegrationWarehouseLifecycle drives the whole system end to end the
// way the paper's Figure 1 depicts: a file-backed sample warehouse shadowing
// two data sets, partitions sampled in parallel lanes, daily roll-in, a
// moving window, roll-out, reopening from disk, and approximate analytics
// validated against ground truth.
func TestIntegrationWarehouseLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := OpenWarehouse(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigForNF(1024)
	if err := wh.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: cfg}); err != nil {
		t.Fatal(err)
	}
	if err := wh.CreateDataset("clicks", DatasetConfig{Algorithm: AlgHB, Core: cfg}); err != nil {
		t.Fatal(err)
	}

	// Ground truth accumulators for the orders data set.
	var truthSum float64
	var truthN int64

	// 10 "days" of data per data set.
	for day := 1; day <= 10; day++ {
		volume := int64(30000 + 5000*(day%3))
		// orders: values are amounts 0..999 with day-dependent drift.
		part := fmt.Sprintf("d%02d", day)
		smp, err := wh.NewPartitionSampler("orders", part, volume)
		if err != nil {
			t.Fatal(err)
		}
		g := NewWorkload(WorkloadSpec{Dist: WorkloadUniform, N: volume, Seed: uint64(day)})
		for {
			v, ok := g.Next()
			if !ok {
				break
			}
			amount := v%1000 + int64(day)
			smp.Feed(amount)
			truthSum += float64(amount)
			truthN++
		}
		s, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.RollIn("orders", part, s); err != nil {
			t.Fatal(err)
		}

		// clicks: HB needs the expected size.
		csmp, err := wh.NewPartitionSampler("clicks", part, volume)
		if err != nil {
			t.Fatal(err)
		}
		g2 := NewWorkload(WorkloadSpec{Dist: WorkloadUniform, N: volume, Seed: uint64(100 + day)})
		for {
			v, ok := g2.Next()
			if !ok {
				break
			}
			csmp.Feed(v)
		}
		cs, err := csmp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.RollIn("clicks", part, cs); err != nil {
			t.Fatal(err)
		}
	}

	// Full merged sample of orders: estimate the mean amount.
	m, err := wh.MergedSampleContext(ctx, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if m.ParentSize != truthN {
		t.Fatalf("merged parent %d, truth %d", m.ParentSize, truthN)
	}
	est := NewEstimator(m)
	avg, err := est.Avg(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	truthAvg := truthSum / float64(truthN)
	if math.Abs(avg.Value-truthAvg) > 6*avg.StdErr+0.5 {
		t.Fatalf("avg %v ± %v, truth %v", avg.Value, avg.StdErr, truthAvg)
	}

	// Window over the last 3 days.
	w, err := wh.WindowContext(ctx, "orders", 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 1024 {
		t.Fatalf("window size %d", w.Size())
	}

	// Roll out the first 5 days and confirm the parent shrinks.
	for day := 1; day <= 5; day++ {
		if err := wh.RollOut("orders", fmt.Sprintf("d%02d", day)); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := wh.MergedSampleContext(ctx, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if m2.ParentSize >= m.ParentSize {
		t.Fatalf("roll-out did not shrink parent: %d vs %d", m2.ParentSize, m.ParentSize)
	}

	// Reopen the warehouse from the same directory.
	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wh2, rep, err := OpenWarehouse(st2, 2)
	if err != nil || !rep.Clean() {
		t.Fatalf("reopen: %v, %v", rep, err)
	}
	m3, err := wh2.MergedSampleContext(ctx, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if m3.ParentSize != m2.ParentSize {
		t.Fatalf("reopened parent %d != %d", m3.ParentSize, m2.ParentSize)
	}
}

// TestIntegrationConcurrentWarehouseAccess hammers one warehouse from many
// goroutines (ingests into distinct data sets plus concurrent merges) to
// verify the locking discipline. Run with -race for full effect.
func TestIntegrationConcurrentWarehouseAccess(t *testing.T) {
	wh := NewWarehouse(NewMemStore(), 3)
	cfg := ConfigForNF(128)
	const workers = 8
	for w := 0; w < workers; w++ {
		if err := wh.CreateDataset(fmt.Sprintf("ds%d", w), DatasetConfig{Algorithm: AlgHR, Core: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := fmt.Sprintf("ds%d", w)
			for part := 0; part < 4; part++ {
				smp, err := wh.NewPartitionSampler(ds, fmt.Sprintf("p%d", part), 0)
				if err != nil {
					errs <- err
					return
				}
				for v := int64(0); v < 3000; v++ {
					smp.Feed(v + int64(part)*3000)
				}
				s, err := smp.Finalize()
				if err != nil {
					errs <- err
					return
				}
				if err := wh.RollIn(ds, fmt.Sprintf("p%d", part), s); err != nil {
					errs <- err
					return
				}
				if _, err := wh.MergedSampleContext(context.Background(), ds); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		m, err := wh.MergedSampleContext(context.Background(), fmt.Sprintf("ds%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if m.ParentSize != 12000 {
			t.Fatalf("ds%d parent %d", w, m.ParentSize)
		}
	}
}

// TestIntegrationStratifiedVsMerged runs the §4.1 stratified-concatenation
// path through the public API and confirms the stratified estimator is
// calibrated.
func TestIntegrationStratifiedVsMerged(t *testing.T) {
	cfg := ConfigForNF(256)
	var strata []*Sample[int64]
	var truthSum float64
	for h := int64(0); h < 5; h++ {
		s := NewHRSampler[int64](cfg, uint64(40+h))
		for i := int64(0); i < 20000; i++ {
			v := h*10000 + i%500
			s.Feed(v)
			truthSum += float64(v)
		}
		fin, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		strata = append(strata, fin)
	}
	st, err := NewStratified(strata...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewStratifiedEstimator(st)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Sum(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Value-truthSum) > 6*sum.StdErr+1 {
		t.Fatalf("stratified sum %v ± %v, truth %v", sum.Value, sum.StdErr, truthSum)
	}
}

// TestIntegrationSymmetricMergerPublicAPI exercises the alias-cached merge
// path through the facade.
func TestIntegrationSymmetricMergerPublicAPI(t *testing.T) {
	cfg := ConfigForNF(64)
	rng := NewRNG(50)
	var samples []*Sample[int64]
	for p := int64(0); p < 8; p++ {
		s := NewHRSampler[int64](cfg, uint64(60+p))
		for v := p * 4096; v < (p+1)*4096; v++ {
			s.Feed(v)
		}
		fin, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, fin)
	}
	m := NewSymmetricMerger[int64]()
	out, err := MergeTree(samples, m.Merge, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.ParentSize != 8*4096 || out.Size() != 64 {
		t.Fatalf("merged %v", out)
	}
	if m.CachedTables() != 3 {
		t.Fatalf("cached tables %d, want 3 levels", m.CachedTables())
	}
}

// TestIntegrationUnionBernoulliPublicAPI exercises unbounded Bernoulli
// unioning through the facade.
func TestIntegrationUnionBernoulliPublicAPI(t *testing.T) {
	cfg := ConfigForNF(1 << 20)
	var samples []*Sample[int64]
	for p := int64(0); p < 3; p++ {
		s := NewSBSampler[int64](cfg, 0.05, uint64(70+p))
		for v := p * 50000; v < (p+1)*50000; v++ {
			s.Feed(v)
		}
		fin, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, fin)
	}
	u, err := UnionBernoulli(samples, NewRNG(71))
	if err != nil {
		t.Fatal(err)
	}
	if u.ParentSize != 150000 || u.Q != 0.05 {
		t.Fatalf("union %v", u)
	}
}
