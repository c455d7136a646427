// Daily roll-up: the paper's warehousing scenario (§2). A data set is
// partitioned temporally — one partition per day — and each day's sample is
// rolled into the sample warehouse as the data loads. Daily samples are
// then combined on demand into weekly and monthly samples, and old days are
// rolled out as the data expires from the full-scale warehouse, so the
// merged sample tracks a moving window over the stream.
//
// Run with: go run ./examples/dailyrollup
package main

import (
	"context"
	"fmt"
	"log"

	"samplewh"
)

func main() {
	ctx := context.Background()
	wh := samplewh.NewWarehouse(samplewh.NewMemStore(), 42)
	cfg := samplewh.DatasetConfig{
		Algorithm: samplewh.AlgHR,
		Core:      samplewh.ConfigForNF(2048),
	}
	if err := wh.CreateDataset("clicks", cfg); err != nil {
		log.Fatal(err)
	}

	// Simulate 28 days of arrivals with fluctuating daily volume. Day d
	// produces values tagged with the day so we can verify window contents.
	for day := 1; day <= 28; day++ {
		volume := int64(20000 + 7000*(day%5)) // fluctuating arrival rate
		id := fmt.Sprintf("day-%02d", day)
		smp, err := wh.NewPartitionSampler("clicks", id, volume)
		if err != nil {
			log.Fatal(err)
		}
		g := samplewh.NewWorkload(samplewh.WorkloadSpec{
			Dist: samplewh.WorkloadUniform,
			N:    volume,
			Seed: uint64(day),
		})
		for {
			v, ok := g.Next()
			if !ok {
				break
			}
			smp.Feed(int64(day)*10_000_000 + v) // day-tagged value
		}
		s, err := smp.Finalize()
		if err != nil {
			log.Fatal(err)
		}
		if err := wh.RollIn("clicks", id, s); err != nil {
			log.Fatal(err)
		}
	}

	// Weekly sample: merge days 1-7 explicitly.
	week1, err := wh.MergedSampleContext(ctx, "clicks",
		"day-01", "day-02", "day-03", "day-04", "day-05", "day-06", "day-07")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("week 1 sample: ", week1)

	// Monthly sample: merge everything currently rolled in.
	month, err := wh.MergedSampleContext(ctx, "clicks")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("monthly sample:", month)

	// Moving 7-day window (the stream-sampling approximation).
	window, err := wh.WindowContext(ctx, "clicks", 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("last-7-days:   ", window)

	// Every value in the window sample must come from days 22-28.
	bad := 0
	window.Hist.Each(func(v int64, c int64) {
		if day := v / 10_000_000; day < 22 || day > 28 {
			bad++
		}
	})
	fmt.Printf("window values outside days 22-28: %d (must be 0)\n\n", bad)

	// Roll out the first two weeks; the full merge now covers only the
	// remaining days.
	for day := 1; day <= 14; day++ {
		if err := wh.RollOut("clicks", fmt.Sprintf("day-%02d", day)); err != nil {
			log.Fatal(err)
		}
	}
	rest, err := wh.MergedSampleContext(ctx, "clicks")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after rolling out days 1-14:", rest)

	// Approximate analytics over the window: estimate each retained day's
	// share of traffic.
	est := samplewh.NewEstimator(window)
	for day := int64(22); day <= 28; day++ {
		frac, err := est.Fraction(func(v int64) bool { return v/10_000_000 == day })
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d traffic share ≈ %s\n", day, frac)
	}
}
