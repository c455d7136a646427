package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
)

// TestFeedAllMatchesFeed: feeding a stream through core.FeedAll, in any
// chunking, is one Feed per value — the same sample (multiset, kind, parent
// size, encoded bytes once value-ordered) and the same draws, so the source
// is left at the same point. HR takes the bulk path; HB and SB the loop. The
// chunkings are all ones, random lengths, and cuts that put the value which
// ends HR's exact phase first, last and inside a chunk.
func TestFeedAllMatchesFeed(t *testing.T) {
	const nf, rows = 256, 5000
	streams := map[string]func(i int) int64{
		"unique":    func(i int) int64 { return int64(i) * 7919 % 1_000_003 },
		"repeated":  func(i int) int64 { return int64(i * 31 % 300) },
		"all-equal": func(int) int64 { return 42 },
	}
	samplers := map[string]func(src randx.Source) core.Sampler[int64]{
		"HR": func(src randx.Source) core.Sampler[int64] { return core.NewHR[int64](core.ConfigForNF(nf), src) },
		"HB": func(src randx.Source) core.Sampler[int64] { return core.NewHB[int64](core.ConfigForNF(nf), rows, src) },
		"SB": func(src randx.Source) core.Sampler[int64] { return core.NewSB[int64](core.ConfigForNF(nf), 0.05, src) },
	}
	for streamName, gen := range streams {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = gen(i)
		}
		for samplerName, newSampler := range samplers {
			for seed := uint64(1); seed <= 3; seed++ {
				refSrc := randx.New(seed)
				ref := newSampler(refSrc)
				switchAt := -1 // the value HR leaves its exact phase on
				for i, v := range vals {
					ref.Feed(v)
					if hr, ok := ref.(*core.HR[int64]); ok && switchAt < 0 && hr.Phase() == core.PhaseReservoir {
						switchAt = i
					}
				}
				want, err := ref.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				wantNext := refSrc.Uint64()
				for chunking, cuts := range chunkings(rows, switchAt, seed) {
					name := fmt.Sprintf("%s/%s/seed=%d/%s", samplerName, streamName, seed, chunking)
					src := randx.New(seed)
					smp := newSampler(src)
					prev := 0
					for _, c := range append(cuts, rows) {
						core.FeedAll(smp, vals[prev:c])
						prev = c
					}
					got, err := smp.Finalize()
					if err != nil {
						t.Fatal(err)
					}
					if got.Kind != want.Kind || got.ParentSize != want.ParentSize || !got.Hist.Equal(want.Hist) {
						t.Fatalf("%s: FeedAll gave %v, Feed %v", name, got, want)
					}
					if a, b := encodeSorted(t, got), encodeSorted(t, want); !bytes.Equal(a, b) {
						t.Fatalf("%s: encoded samples differ", name)
					}
					if next := src.Uint64(); next != wantNext {
						t.Fatalf("%s: next draw %d, Feed leaves the source at %d", name, next, wantNext)
					}
				}
			}
		}
	}
}

// chunkings returns named sets of cut points in (0, rows), ascending.
func chunkings(rows, switchAt int, seed uint64) map[string][]int {
	out := map[string][]int{"one": nil}
	ones := make([]int, 0, rows-1)
	for i := 1; i < rows; i++ {
		ones = append(ones, i)
	}
	out["ones"] = ones
	r := randx.New(seed + 100)
	var random []int
	for c := 1 + randx.Intn(r, 600); c < rows; c += 1 + randx.Intn(r, 600) {
		random = append(random, c)
	}
	out["random"] = random
	if switchAt > 1 {
		out["switch-first"] = []int{switchAt}
		out["switch-last"] = []int{switchAt + 1}
		out["switch-inside"] = []int{switchAt - 1, switchAt + 2}
	}
	return out
}

func encodeSorted(t *testing.T, s *core.Sample[int64]) []byte {
	t.Helper()
	s.Hist.SortFunc(storage.Int64Codec{}.Compare)
	b, err := storage.EncodeSample(s, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
