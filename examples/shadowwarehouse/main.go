// Shadow warehouse: the paper's headline premise (Figure 1) end to end. A
// full-scale warehouse stores every value on disk; a sample warehouse
// "shadows" it, maintaining a bounded uniform sample per partition as the
// batches load. Analytical queries are answered two ways — exactly, by
// scanning the full data, and approximately, from the shadow samples — and
// the answers and times are compared.
//
// Run with: go run ./examples/shadowwarehouse
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"samplewh"
)

func main() {
	dir, err := os.MkdirTemp("", "shadow-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	full, err := samplewh.OpenFullWarehouse(dir + "/full")
	if err != nil {
		log.Fatal(err)
	}
	store, err := samplewh.NewFileStore(dir + "/samples")
	if err != nil {
		log.Fatal(err)
	}

	// Observability: one registry collects metrics from the store, the
	// warehouse and every sampler it hands out.
	reg := samplewh.NewMetrics()
	store.Instrument(reg)

	samples, _, err := samplewh.OpenWarehouse(store, 7)
	if err != nil {
		log.Fatal(err)
	}
	samples.Instrument(reg)
	if err := samples.CreateDataset("sensor", samplewh.DatasetConfig{
		Algorithm: samplewh.AlgHR,
		Core:      samplewh.ConfigForNF(4096),
	}); err != nil {
		log.Fatal(err)
	}
	shadow := samplewh.NewShadow(full, samples)

	// Load 8 partitions of 500K readings each: 4M values in the full
	// warehouse, 8 bounded samples (≤ 4096 values each) in the shadow.
	const parts = 8
	const per = 500_000
	start := time.Now()
	for p := 0; p < parts; p++ {
		gen := samplewh.NewWorkload(samplewh.WorkloadSpec{
			Dist: samplewh.WorkloadUniform,
			N:    per,
			Seed: uint64(p + 1),
		})
		_, err := shadow.Ingest("sensor", fmt.Sprintf("batch-%d", p), 0,
			func(yield func(int64) bool) {
				for {
					v, ok := gen.Next()
					if !ok {
						return
					}
					if !yield(v) {
						return
					}
				}
			})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded %d partitions × %d values in %v (full data + shadow samples)\n\n",
		parts, per, time.Since(start).Round(time.Millisecond))

	// Query 1: COUNT(reading < 250000) — selectivity ≈ 25%.
	pred := func(v int64) bool { return v < 250_000 }

	t0 := time.Now()
	exact, err := full.Count("sensor", pred)
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(t0)

	t0 = time.Now()
	merged, err := samples.MergedSampleContext(context.Background(), "sensor")
	if err != nil {
		log.Fatal(err)
	}
	approx, err := samplewh.NewEstimator(merged).Count(pred)
	if err != nil {
		log.Fatal(err)
	}
	approxTime := time.Since(t0)

	fmt.Println("COUNT(reading < 250000):")
	fmt.Printf("  exact scan : %d                (%v)\n", exact, exactTime.Round(time.Microsecond))
	fmt.Printf("  from sample: %s  (%v)\n", approx, approxTime.Round(time.Microsecond))
	relErr := (approx.Value - float64(exact)) / float64(exact) * 100
	fmt.Printf("  relative error %.2f%%, speedup ≈ %.0fx\n\n",
		relErr, float64(exactTime)/float64(approxTime))

	// Query 2: AVG(reading).
	t0 = time.Now()
	sumExact, err := full.Sum("sensor", func(v int64) float64 { return float64(v) })
	if err != nil {
		log.Fatal(err)
	}
	sizeExact, err := full.Size("sensor")
	if err != nil {
		log.Fatal(err)
	}
	exactTime = time.Since(t0)
	avgExact := sumExact / float64(sizeExact)

	t0 = time.Now()
	avgApprox, err := samplewh.NewEstimator(merged).Avg(func(v int64) float64 { return float64(v) })
	if err != nil {
		log.Fatal(err)
	}
	approxTime = time.Since(t0)
	fmt.Println("AVG(reading):")
	fmt.Printf("  exact scan : %.1f        (%v)\n", avgExact, exactTime.Round(time.Microsecond))
	fmt.Printf("  from sample: %s  (%v)\n", avgApprox, approxTime.Round(time.Microsecond))
	if avgApprox.Lo <= avgExact && avgExact <= avgApprox.Hi {
		fmt.Println("  truth inside the 95% confidence interval ✓")
	}

	// Expire the oldest batch from both sides; the shadow stays consistent.
	if err := shadow.RollOut("sensor", "batch-0"); err != nil {
		log.Fatal(err)
	}
	m2, err := samples.MergedSampleContext(context.Background(), "sensor")
	if err != nil {
		log.Fatal(err)
	}
	size2, err := full.Size("sensor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter rolling out batch-0: full=%d values, shadow parent=%d (consistent: %v)\n",
		size2, m2.ParentSize, size2 == m2.ParentSize)

	// What the instrumentation saw: counters, gauges and latency histograms.
	fmt.Printf("\n=== metrics ===\n%s", reg.String())
}
