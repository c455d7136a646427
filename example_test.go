package samplewh_test

import (
	"context"
	"fmt"
	"log"

	"samplewh"
)

// The basic loop: feed a partition through a bounded sampler and inspect
// the finalized compact sample.
func ExampleNewHRSampler() {
	cfg := samplewh.ConfigForNF(100) // footprint bound: 100 values
	s := samplewh.NewHRSampler[int64](cfg, 42)
	for v := int64(0); v < 10000; v++ {
		s.Feed(v)
	}
	sample, err := s.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("kind:", sample.Kind)
	fmt.Println("size:", sample.Size())
	fmt.Println("parent:", sample.ParentSize)
	fmt.Println("within bound:", sample.Footprint() <= cfg.FootprintBytes)
	// Output:
	// kind: reservoir
	// size: 100
	// parent: 10000
	// within bound: true
}

// Algorithm HB needs the expected partition size and reports its eq.-(1)
// Bernoulli rate.
func ExampleNewHBSampler() {
	cfg := samplewh.ConfigForNF(1000)
	s := samplewh.NewHBSampler[int64](cfg, 50000, 7)
	fmt.Printf("q chosen for N=50000: %.4f\n", s.Q())
	for v := int64(0); v < 50000; v++ {
		s.Feed(v)
	}
	sample, err := s.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("kind:", sample.Kind)
	fmt.Println("size below nF:", sample.Size() < 1000)
	// Output:
	// q chosen for N=50000: 0.0182
	// kind: bernoulli
	// size below nF: true
}

// Small partitions stay exhaustive: the sample is the exact histogram.
func ExampleSample_exhaustive() {
	s := samplewh.NewHRSampler[int64](samplewh.ConfigForNF(1000), 1)
	for i := 0; i < 300; i++ {
		s.Feed(int64(i % 3))
	}
	sample, err := s.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("kind:", sample.Kind)
	fmt.Println("count of value 2:", sample.Hist.Count(2))
	// Output:
	// kind: exhaustive
	// count of value 2: 100
}

// Merging two partition samples yields a uniform sample of the union with
// the parent sizes combined.
func ExampleHRMerge() {
	cfg := samplewh.ConfigForNF(64)
	mk := func(lo, hi int64, seed uint64) *samplewh.Sample[int64] {
		s := samplewh.NewHRSampler[int64](cfg, seed)
		for v := lo; v < hi; v++ {
			s.Feed(v)
		}
		out, err := s.Finalize()
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	s1 := mk(0, 5000, 1)
	s2 := mk(5000, 15000, 2)
	merged, err := samplewh.HRMerge(s1, s2, samplewh.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged parent:", merged.ParentSize)
	fmt.Println("merged size:", merged.Size())
	// Output:
	// merged parent: 15000
	// merged size: 64
}

// The estimator answers approximate queries with confidence intervals; on
// an exhaustive sample the answers are exact.
func ExampleNewEstimator() {
	s := samplewh.NewHRSampler[int64](samplewh.ConfigForNF(10000), 1)
	for v := int64(1); v <= 1000; v++ {
		s.Feed(v)
	}
	sample, err := s.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	est := samplewh.NewEstimator(sample)
	count, err := est.Count(func(v int64) bool { return v <= 250 })
	if err != nil {
		log.Fatal(err)
	}
	avg, err := est.Avg(func(v int64) float64 { return float64(v) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("COUNT(v<=250):", count)
	fmt.Println("AVG(v):", avg)
	// Output:
	// COUNT(v<=250): 250 (exact)
	// AVG(v): 500.5 (exact)
}

// A warehouse organizes partition samples per data set and produces merged
// samples of any subset on demand.
func ExampleWarehouse() {
	ctx := context.Background()
	wh := samplewh.NewWarehouse(samplewh.NewMemStore(), 5)
	err := wh.CreateDataset("orders", samplewh.DatasetConfig{
		Algorithm: samplewh.AlgHR,
		Core:      samplewh.ConfigForNF(128),
	})
	if err != nil {
		log.Fatal(err)
	}
	for day := int64(1); day <= 3; day++ {
		id := fmt.Sprintf("day%d", day)
		smp, err := wh.NewPartitionSampler("orders", id, 0)
		if err != nil {
			log.Fatal(err)
		}
		for v := int64(0); v < 10000; v++ {
			smp.Feed(day*100000 + v)
		}
		s, err := smp.Finalize()
		if err != nil {
			log.Fatal(err)
		}
		if err := wh.RollIn("orders", id, s); err != nil {
			log.Fatal(err)
		}
	}
	merged, err := wh.MergedSampleContext(ctx, "orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partitions:", 3)
	fmt.Println("merged parent:", merged.ParentSize)
	window, err := wh.WindowContext(ctx, "orders", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("window parent:", window.ParentSize)
	// Output:
	// partitions: 3
	// merged parent: 30000
	// window parent: 20000
}

// QApprox is the paper's equation (1); QExact is the bisection ground truth
// it approximates to within 3%.
func ExampleQApprox() {
	q := samplewh.QApprox(100000, 0.001, 8192)
	qe := samplewh.QExact(100000, 0.001, 8192, 1e-12)
	fmt.Printf("approx: %.6f\n", q)
	fmt.Printf("exact:  %.6f\n", qe)
	// Output:
	// approx: 0.079280
	// exact:  0.079273
}
