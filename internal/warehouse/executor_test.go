package warehouse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/storage"
)

// executorFixture is a data set with four in-range partitions (one of them
// deleted behind the warehouse's back, so it fails to load) and one whose
// values lie far outside the query range [0, 3999].
func executorFixture(t *testing.T) (*Warehouse[int64], *obs.Registry) {
	t.Helper()
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	w := mustOpen[int64](t, store, 42)
	w.ld.workers = 2
	if err := w.CreateDataset("orders", DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(128)}); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 4; p++ {
		ingest(t, w, "orders", fmt.Sprintf("p%d", p), p*1000, (p+1)*1000)
	}
	ingest(t, w, "orders", "far", 90000, 91000)
	if err := store.Delete("orders/p2"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.Instrument(reg)
	return w, reg
}

// TestExecutorCoverageInvariant drives the one executor through every
// combination of result shape, strictness, pruning and bounds its adapters
// can express, and checks the accounting every caller relies on: Requested is
// the disjoint union of Merged, Skipped, Pruned and SketchPruned.
func TestExecutorCoverageInvariant(t *testing.T) {
	inRange := SketchRange{Lo: 0, Hi: 3999}
	bounds := map[string]plan.Bounds{
		"unbounded": {},
		"maxerr":    {MaxErr: 0.3},
		"maxtime":   {MaxTime: time.Minute},
	}
	for _, strata := range []bool{false, true} {
		for _, partial := range []bool{true, false} {
			for _, prune := range []bool{true, false} {
				for bname, b := range bounds {
					if strata && b.Bounded() {
						continue // strata have no bounded adapter
					}
					name := fmt.Sprintf("strata=%v/partial=%v/prune=%v/%s", strata, partial, prune, bname)
					t.Run(name, func(t *testing.T) {
						w, reg := executorFixture(t)
						ctx := context.Background()
						var cov MergeCoverage
						var err error
						if strata {
							_, _, cov, err = w.StratifiedRange(ctx, "orders", nil, inRange, prune, partial)
						} else {
							pq := PlannedQuery[int64]{Bounds: b}
							if b.MaxErr > 0 {
								pq.HalfWidth = proxyHW(0.95)
							}
							if prune {
								pq.SketchRange = &inRange
							}
							var s *core.Sample[int64]
							s, cov, _, err = w.MergedSamplePlanned(ctx, "orders", nil, partial, pq)
							if err == nil && s == nil {
								t.Fatal("merge returned neither a sample nor an error")
							}
						}
						if err != nil {
							// Only a strict query may fail, and only on the
							// partition that cannot load.
							if partial || !storage.IsNotFound(err) {
								t.Fatalf("unexpected error: %v", err)
							}
							return
						}
						checkDisjointUnion(t, cov)
						if len(cov.Skipped) > 0 && (!partial || cov.Skipped[0].ID != "p2") {
							t.Fatalf("skipped %+v, want at most the deleted p2 of a partial query", cov.Skipped)
						}
						// Only strata and bounded merges prune; an unbounded
						// merge ignores the range.
						wantPruned := prune && (strata || b.Bounded())
						if got := slices.Contains(cov.SketchPruned, "far"); got != wantPruned {
							t.Fatalf("far sketch-pruned = %v, want %v (coverage %+v)", got, wantPruned, cov)
						}
						// A degraded merge says so in its counter too,
						// bounded or not.
						if n := reg.Counter("warehouse.partial_merges").Value(); !strata && len(cov.Skipped) > 0 && n != 1 {
							t.Fatalf("partial merge counted %d warehouse.partial_merges, want 1", n)
						}
					})
				}
			}
		}
	}
}

func checkDisjointUnion(t *testing.T, cov MergeCoverage) {
	t.Helper()
	var got []string
	got = append(got, cov.Merged...)
	got = append(got, cov.Pruned...)
	got = append(got, cov.SketchPruned...)
	for _, sk := range cov.Skipped {
		got = append(got, sk.ID)
	}
	want := append([]string(nil), cov.Requested...)
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged+skipped+pruned+sketch_pruned = %v, requested = %v (coverage %+v)", got, want, cov)
	}
}

// TestExecutorSentinelErrors checks that each read adapter reports the
// failures callers branch on as errors.Is-matchable sentinels.
func TestExecutorSentinelErrors(t *testing.T) {
	ctx := context.Background()
	timed := PlannedQuery[int64]{Bounds: plan.Bounds{MaxTime: time.Minute}}
	// Each adapter, reduced to (dataset, ids, partial) → error.
	adapters := map[string]func(w *Warehouse[int64], ds string, ids []string, partial bool) error{
		"MergedSampleContext": func(w *Warehouse[int64], ds string, ids []string, partial bool) error {
			if partial {
				_, _, err := w.MergedSamplePartialContext(ctx, ds, ids...)
				return err
			}
			_, err := w.MergedSampleContext(ctx, ds, ids...)
			return err
		},
		"MergedSamplePlanned/unbounded": func(w *Warehouse[int64], ds string, ids []string, partial bool) error {
			_, _, _, err := w.MergedSamplePlanned(ctx, ds, ids, partial, PlannedQuery[int64]{})
			return err
		},
		"MergedSamplePlanned/bounded": func(w *Warehouse[int64], ds string, ids []string, partial bool) error {
			_, _, _, err := w.MergedSamplePlanned(ctx, ds, ids, partial, timed)
			return err
		},
		"StratifiedRange": func(w *Warehouse[int64], ds string, ids []string, partial bool) error {
			_, _, _, err := w.StratifiedRange(ctx, ds, ids, SketchRange{Lo: 0, Hi: 1000}, true, partial)
			return err
		},
		"WindowContext": func(w *Warehouse[int64], ds string, ids []string, partial bool) error {
			_, err := w.WindowContext(ctx, ds, 3)
			return err
		},
	}
	// A store whose every sample is gone: nothing is readable.
	store := storage.NewMemStore[int64](storage.Int64Codec{})
	w := mustOpen[int64](t, store, 1)
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	for _, ds := range []string{"orders", "empty"} {
		if err := w.CreateDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"a", "b"} {
		ingest(t, w, "orders", p, 0, 500)
		if err := store.Delete("orders/" + p); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		ds      string
		ids     []string
		partial bool
		want    error
	}{
		{"unknown data set", "ghost", nil, false, ErrUnknownDataset},
		{"no partitions", "empty", nil, false, ErrNoPartitions},
		{"duplicate partition", "orders", []string{"a", "a"}, false, ErrDuplicatePartition},
		{"no readable partitions", "orders", nil, true, ErrNoReadablePartitions},
	}
	for aname, call := range adapters {
		for _, c := range cases {
			if aname == "WindowContext" && (c.ids != nil || c.partial) {
				continue // a window names no ids and is always strict
			}
			if err := call(w, c.ds, c.ids, c.partial); !errors.Is(err, c.want) {
				t.Errorf("%s, %s: got %v, want errors.Is %v", aname, c.name, err, c.want)
			}
		}
	}
	if err := w.CreateDataset("orders", cfg); !errors.Is(err, ErrDatasetExists) {
		t.Errorf("duplicate CreateDataset: got %v, want ErrDatasetExists", err)
	}
}
