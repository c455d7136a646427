package experiments

import (
	"context"
	"fmt"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// FaultTolerance exercises the robustness stack end to end and reports what
// the user saw versus what actually happened underneath. Two phases:
//
// Phase 1 (transient storm): every store operation fails with probability
// transientRate behind a RetryStore. The workload — roll-ins and merges over
// `parts` partitions — must complete with zero user-visible errors; the
// report shows how many injected failures the retry layer absorbed.
//
// Phase 2 (bit-rot): each partition's sample is permanently unreadable with
// probability corruptRate. The strict merge fails, the partial merge
// degrades: the report lists how many partitions each merge covered and
// which were skipped — the graceful-degradation contract.
func FaultTolerance(transientRate, corruptRate float64, parts int, opt Options) (*Report, error) {
	opt = opt.normalized()
	if transientRate <= 0 {
		transientRate = 0.2
	}
	if corruptRate <= 0 {
		corruptRate = 0.15
	}
	if parts <= 0 {
		parts = 16
	}
	if opt.NF == 8192 {
		opt.NF = 256 // the experiment is about faults, not sample quality
	}
	const perPartition = 4000

	r := &Report{
		Title: fmt.Sprintf("Fault tolerance: %d partitions, %.0f%% transient rate, %.0f%% corruption rate",
			parts, transientRate*100, corruptRate*100),
		Header: []string{"phase", "store_ops", "injected", "retries", "user_errors", "merged/requested"},
	}

	// Phase 1: transient storm absorbed by the retry layer.
	reg := obs.NewRegistry()
	inj := faults.Wrap[int64](storage.NewMemStore[int64](), faults.Rates{
		Seed:      opt.Seed,
		Transient: transientRate,
	})
	rs := storage.NewRetryStore[int64](inj, storage.RetryPolicy{
		MaxAttempts: 12,
		Seed:        opt.Seed,
		Sleep:       func(time.Duration) {}, // measure behavior, not wall clock
	})
	rs.Instrument(reg)
	w, _, err := warehouse.Open[int64](rs, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: faults: open: %w", err)
	}
	if err := w.CreateDataset("ft", warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: opt.config()}); err != nil {
		return nil, err
	}
	rng := randx.New(opt.Seed)
	userErrors := 0
	for i := 0; i < parts; i++ {
		hr := core.NewHR[int64](opt.config(), rng.Split())
		for v := int64(0); v < perPartition; v++ {
			hr.Feed(int64(i)*perPartition + v)
		}
		s, err := hr.Finalize()
		if err != nil {
			return nil, err
		}
		if err := w.RollIn("ft", fmt.Sprintf("p%03d", i), s); err != nil {
			userErrors++
		}
		if _, err := w.MergedSampleContext(context.Background(), "ft"); err != nil {
			userErrors++
		}
	}
	st := inj.Stats()
	r.Add("transient storm", st.TotalOps(), st.TotalInjected(),
		reg.Counter("storage.retry.retries").Value(), userErrors,
		fmt.Sprintf("%d/%d", parts, parts))
	if userErrors > 0 {
		r.Note("FAILED: %d user-visible errors leaked through the retry layer", userErrors)
		return r, fmt.Errorf("experiments: faults: %d user-visible errors at %.0f%% transient rate",
			userErrors, transientRate*100)
	}

	// Phase 2: sticky per-key corruption and graceful degradation.
	reg2 := obs.NewRegistry()
	inj2 := faults.Wrap[int64](storage.NewMemStore[int64](), faults.Rates{
		Seed:    opt.Seed + 1,
		Corrupt: corruptRate,
	})
	w2 := warehouse.New[int64](inj2, opt.Seed)
	w2.Instrument(reg2)
	if err := w2.CreateDataset("ft", warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: opt.config()}); err != nil {
		return nil, err
	}
	for i := 0; i < parts; i++ {
		hr := core.NewHR[int64](opt.config(), rng.Split())
		for v := int64(0); v < perPartition; v++ {
			hr.Feed(int64(i)*perPartition + v)
		}
		s, err := hr.Finalize()
		if err != nil {
			return nil, err
		}
		if err := w2.RollIn("ft", fmt.Sprintf("p%03d", i), s); err != nil {
			return nil, fmt.Errorf("experiments: faults: phase-2 roll-in: %w", err)
		}
	}
	merged, cov, err := w2.MergedSamplePartialContext(context.Background(), "ft")
	if err != nil {
		return nil, fmt.Errorf("experiments: faults: partial merge: %w", err)
	}
	st2 := inj2.Stats()
	r.Add("bit-rot", st2.TotalOps(), st2.TotalInjected(), 0, 0,
		fmt.Sprintf("%d/%d", len(cov.Merged), len(cov.Requested)))
	if len(cov.Skipped) > 0 {
		names := make([]string, len(cov.Skipped))
		for i, sk := range cov.Skipped {
			names[i] = fmt.Sprintf("%s (%s)", sk.ID, sk.Reason)
		}
		r.Note("partial merge skipped: %v; surviving union still uniform with parent size %d",
			names, merged.ParentSize)
	} else {
		r.Note("no partition drew corruption at this seed/rate; rerun with a higher -fault-corrupt")
	}
	r.Note("retry layer absorbed %d injected failures across %d store operations with zero user-visible errors",
		st.TotalInjected(), st.TotalOps())
	return r, nil
}
