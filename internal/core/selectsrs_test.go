package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
	"samplewh/internal/stats"
)

// TestSelectSRSLaw checks selectSRS's exact law on tiny histograms. A simple
// random sample of n of the N expanded elements makes every size-n subset
// equally likely. The compact result shows, per entry of count c, how many of
// its c equal elements were taken, so an outcome (t₁…t_D) stands for
// ∏C(cᵢ, tᵢ) subsets and has probability ∏C(cᵢ, tᵢ)/C(N, n). Every outcome
// is tallied and chi-square-tested against that law; with all singletons the
// outcomes are the subsets themselves (35 for N = 7, n = 3). The histograms
// take both sides of the cost rule: Floyd's bitset, over one word and over
// two, and the entry walk, forced by a heavy entry.
func TestSelectSRSLaw(t *testing.T) {
	const trials = 20000
	sawFloyd, sawWalk := false, false
	for ci, tc := range []struct {
		name   string
		counts []int64
		walk   bool
	}{
		{"singletons", []int64{1, 1, 1, 1, 1, 1, 1}, false},
		{"mixed", []int64{2, 1, 3, 1}, false},
		{"two words", []int64{40, 1, 30}, false},
		{"heavy", []int64{1, 300, 2}, true},
	} {
		entries := make([]histogram.Entry[int64], len(tc.counts))
		var size int64
		for i, c := range tc.counts {
			entries[i] = histogram.Entry[int64]{Value: int64(10 * i), Count: c}
			size += c
		}
		h := histogram.FromEntries(histogram.DefaultSizeModel, entries)
		if got := walks(size, h.Distinct()); got != tc.walk {
			t.Fatalf("%s: walks(%d, %d) = %v, want %v", tc.name, size, h.Distinct(), got, tc.walk)
		}
		sawFloyd, sawWalk = sawFloyd || !tc.walk, sawWalk || tc.walk
		// An outcome's cell is its mixed-radix index over (c₁+1)…(c_D+1).
		cells := int64(1)
		for _, c := range tc.counts {
			cells *= c + 1
		}
		for _, n := range []int64{0, 1, 2, 3, size - 1, size} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				r := randx.New(uint64(100*ci) + uint64(n))
				observed := make([]int64, cells)
				for trial := 0; trial < trials; trial++ {
					got := selectSRS(h, n, nil, r)
					cell, stride, taken, j := int64(0), int64(1), int64(0), 0
					for i, c := range tc.counts {
						var k int64
						if j < len(got) && got[j].Value == entries[i].Value {
							if k = got[j].Count; k < 1 || k > c {
								t.Fatalf("trial %d: took %d of entry %d's %d elements: %v", trial, k, i, c, got)
							}
							j++
						}
						cell += k * stride
						stride *= c + 1
						taken += k
					}
					if j != len(got) || taken != n {
						t.Fatalf("trial %d: %v is not %d elements of %v in entry order", trial, got, n, tc.counts)
					}
					observed[cell]++
				}
				// The law, over every outcome with Σtᵢ = n.
				expected := make([]float64, cells)
				for cell := range expected {
					rest, logP, taken := int64(cell), -lchoose(size, n), int64(0)
					for _, c := range tc.counts {
						k := rest % (c + 1)
						rest /= c + 1
						logP += lchoose(c, k)
						taken += k
					}
					if taken == n {
						expected[cell] = trials * math.Exp(logP)
					}
				}
				obs, exp := poolSmallCells(observed, expected)
				if len(obs) < 2 {
					// n = 0 or N: one outcome, so every trial must be it.
					if obs[0] != trials {
						t.Fatalf("%d of %d trials gave the only possible outcome", obs[0], trials)
					}
					return
				}
				res, err := stats.ChiSquareGOF(obs, exp, 0)
				if err != nil {
					t.Fatal(err)
				}
				if p := 1 - stats.ChiSquareCDF(res.Stat, res.DF); p < 1e-4 {
					t.Errorf("%d outcomes are not the SRS law: chi2=%.2f df=%d p=%.3g", len(obs), res.Stat, res.DF, p)
				}
			})
		}
	}
	if !sawFloyd || !sawWalk {
		t.Fatalf("cost rule: Floyd hit %v, walk hit %v; want both", sawFloyd, sawWalk)
	}
}

// lchoose is log C(n, k).
func lchoose(n, k int64) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// poolSmallCells drops the impossible outcomes (the trials saw none: each
// took n elements, at most c of a count-c entry) and folds those expected
// fewer than 5 times into one cell, itself folded into the smallest other
// cell if it is still expected fewer than 5 times.
func poolSmallCells(observed []int64, expected []float64) ([]int64, []float64) {
	var obs []int64
	var exp []float64
	var restObs int64
	var restExp float64
	for i, e := range expected {
		switch {
		case e == 0:
		case e < 5:
			restObs += observed[i]
			restExp += e
		default:
			obs, exp = append(obs, observed[i]), append(exp, e)
		}
	}
	if restExp == 0 {
		return obs, exp
	}
	if restExp >= 5 || len(obs) == 0 {
		return append(obs, restObs), append(exp, restExp)
	}
	small := 0
	for i := range exp {
		if exp[i] < exp[small] {
			small = i
		}
	}
	obs[small] += restObs
	exp[small] += restExp
	return obs, exp
}

// TestSelectSRSRepeatsMapping holds the position → entry map through the
// repeated entries to a walk of every entry's cumulative count over the same
// Floyd draws, on histograms with no repeat, a few (one at each end among
// them) and many, so the survivors are the ones the walk picks.
func TestSelectSRSRepeatsMapping(t *testing.T) {
	for ci, counts := range [][]int64{
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{3, 1, 1, 1, 2, 1, 1, 1, 1, 4},
		{1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2},
		{2, 3, 2, 1, 5, 2, 2, 1, 1, 3, 2, 2},
	} {
		entries := make([]histogram.Entry[int64], len(counts))
		var size int64
		for i, c := range counts {
			entries[i] = histogram.Entry[int64]{Value: int64(7 * i), Count: c}
			size += c
		}
		h := histogram.FromEntries(histogram.DefaultSizeModel, entries)
		for n := int64(1); n < size; n++ {
			for seed := uint64(0); seed < 20; seed++ {
				got := selectSRS(h, n, nil, randx.New(seed))
				// The same draws, mapped by walking the cumulative counts.
				r := randx.New(seed)
				set := make([]bool, size)
				for j := size - n; j < size; j++ {
					if t := randx.Int64n(r, j+1); !set[t] {
						set[t] = true
					} else {
						set[j] = true
					}
				}
				var want []histogram.Entry[int64]
				var p int64
				for _, e := range entries {
					var took int64
					for c := int64(0); c < e.Count; c, p = c+1, p+1 {
						if set[p] {
							took++
						}
					}
					if took > 0 {
						want = append(want, histogram.Entry[int64]{Value: e.Value, Count: took})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("histogram %d, n=%d, seed %d: selectSRS = %v, the walk gives %v", ci, n, seed, got, want)
				}
			}
		}
	}
}
