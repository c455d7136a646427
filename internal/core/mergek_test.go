package core_test

// The MergeK tests live outside package core so they can hold the inputs to
// the storage codec's notion of identity (storage imports core).

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
	"samplewh/internal/stats"
	"samplewh/internal/storage"
)

var mergeKCfg = core.ConfigForNF(64)

// srsOf draws a simple random sample of n elements of the bag d (partial
// Fisher–Yates on a copy) and wraps it as a reservoir sample of d. The entries
// are laid out in value order, so a selection that favoured some position in
// the histogram would favour some values and fail the uniformity test.
func srsOf(d []int64, n int, src randx.Source) *core.Sample[int64] {
	bag := append([]int64(nil), d...)
	for i := 0; i < n; i++ {
		j := i + randx.Intn(src, len(bag)-i)
		bag[i], bag[j] = bag[j], bag[i]
	}
	slices.Sort(bag[:n])
	return &core.Sample[int64]{
		Kind:       core.ReservoirKind,
		Hist:       histogram.FromBag(mergeKCfg.SizeModel, bag[:n]),
		ParentSize: int64(len(d)),
		Config:     mergeKCfg,
	}
}

// mergeKPartitions builds m partitions of unequal size over a universe of 24
// values: every value occurs in several partitions and several times within
// one, so samples carry count > 1 entries and the join has to sum.
func mergeKPartitions(m int) [][]int64 {
	parts := make([][]int64, m)
	for i := range parts {
		parts[i] = make([]int64, 40+13*(i%5))
		for j := range parts[i] {
			parts[i][j] = int64((5*j + j/9 + i) % 24)
		}
	}
	return parts
}

func encoded(t *testing.T, s *core.Sample[int64]) []byte {
	t.Helper()
	b, err := storage.EncodeSample(s, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeKUniform is Theorem 1 for m inputs: with every Sᵢ a fresh simple
// random sample of Dᵢ, each data element of ∪Dᵢ must be equally likely to be
// in the merged sample, so a value's total count over many trials is
// proportional to its multiplicity in the union. Sampling without replacement
// shrinks every cell variance by (N−k)/(N−1) relative to the multinomial the
// chi-square assumes; the statistic is scaled back up by that factor.
func TestMergeKUniform(t *testing.T) {
	const trials = 20000
	for _, m := range []int{2, 3, 16, 17} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			seed := uint64(1000 + m)
			r := randx.New(seed)
			parts := mergeKPartitions(m)
			mult := make([]float64, 24)
			var n int64
			for _, d := range parts {
				for _, v := range d {
					mult[v]++
				}
				n += int64(len(d))
			}
			k := int64(8)
			counts := make([]int64, 24)
			for trial := 0; trial < trials; trial++ {
				samples := make([]*core.Sample[int64], m)
				for i, d := range parts {
					samples[i] = srsOf(d, 8+4*(i%3), r) // unequal |Sᵢ|, min 8
				}
				got, err := core.MergeK(context.Background(), samples, r.Split(), 1)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got.Size() != k {
					t.Fatalf("seed %d: merged size %d, want %d", seed, got.Size(), k)
				}
				got.Hist.Each(func(v, c int64) { counts[v] += c })
			}
			expected := make([]float64, 24)
			for v := range expected {
				expected[v] = float64(trials) * float64(k) * mult[v] / float64(n)
			}
			res, err := stats.ChiSquareGOF(counts, expected, 0)
			if err != nil {
				t.Fatal(err)
			}
			res.Stat *= float64(n-1) / float64(n-k)
			if p := 1 - stats.ChiSquareCDF(res.Stat, res.DF); p < 1e-4 {
				t.Errorf("seed %d: merged sample is not uniform over the union: chi2=%.2f df=%d p=%.3g",
					seed, res.Stat, res.DF, p)
			}
		})
	}
}

// TestMergeKContributionMarginals checks the multivariate hypergeometric
// draw: with disjoint value ranges the number of merged elements input i
// contributed is readable from the result, and must have the hypergeometric
// mean k·|Dᵢ|/N and variance k·pᵢ(1−pᵢ)(N−k)/(N−1).
func TestMergeKContributionMarginals(t *testing.T) {
	const trials = 20000
	for _, m := range []int{2, 3, 16, 17} {
		seed := uint64(2000 + m)
		r := randx.New(seed)
		samples := make([]*core.Sample[int64], m)
		var n int64
		for i := range samples {
			d := make([]int64, 30+17*(i%4))
			for j := range d {
				d[j] = int64(1000*i + j/2) // pairs: count-2 entries occur
			}
			samples[i] = srsOf(d, 10+3*(i%2), r)
			n += int64(len(d))
		}
		const k = 10
		sum := make([]float64, m)
		sumSq := make([]float64, m)
		for trial := 0; trial < trials; trial++ {
			got, err := core.MergeK(context.Background(), samples, r.Split(), 1)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			l := make([]float64, m)
			got.Hist.Each(func(v, c int64) { l[v/1000] += float64(c) })
			for i, x := range l {
				sum[i] += x
				sumSq[i] += x * x
			}
		}
		for i, s := range samples {
			p := float64(s.ParentSize) / float64(n)
			wantMean := k * p
			wantVar := k * p * (1 - p) * float64(n-k) / float64(n-1)
			mean := sum[i] / trials
			variance := sumSq[i]/trials - mean*mean
			if math.Abs(mean-wantMean) > 5*math.Sqrt(wantVar/trials) {
				t.Errorf("seed %d m=%d: input %d contributes %.4f on average, want %.4f", seed, m, i, mean, wantMean)
			}
			if math.Abs(variance-wantVar) > 0.08*wantVar {
				t.Errorf("seed %d m=%d: input %d contribution variance %.4f, want %.4f", seed, m, i, variance, wantVar)
			}
		}
	}
}

// TestMergeKShapeAndPurity: the result has size minᵢ|Sᵢ|, parent Σ|Dᵢ| and
// reservoir kind (for two inputs, what HRMerge reports); it is byte-identical
// for every parallelism; and the inputs are bit-for-bit what they were.
func TestMergeKShapeAndPurity(t *testing.T) {
	for _, m := range []int{2, 3, 16, 17} {
		const seed = 31
		r := randx.New(seed)
		var samples []*core.Sample[int64]
		var before [][]byte
		var parents int64
		minSize := int64(math.MaxInt64)
		for i, d := range mergeKPartitions(m) {
			s := srsOf(d, 9+5*(i%4), r)
			samples = append(samples, s)
			before = append(before, encoded(t, s))
			parents += s.ParentSize
			minSize = min(minSize, s.Size())
		}
		var first []byte
		for _, par := range []int{1, 2, 0} {
			got, err := core.MergeK(context.Background(), samples, randx.New(seed), par)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size() != minSize || got.ParentSize != parents || got.Kind != core.ReservoirKind {
				t.Fatalf("m=%d: merged %v, want size %d parent %d reservoir", m, got, minSize, parents)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if b := encoded(t, got); first == nil {
				first = b
			} else if !bytes.Equal(first, b) {
				t.Fatalf("m=%d seed %d: parallelism %d changed the merged sample", m, seed, par)
			}
		}
		for i, s := range samples {
			if !bytes.Equal(before[i], encoded(t, s)) {
				t.Fatalf("m=%d seed %d: MergeK mutated input %d", m, seed, i)
			}
		}
		if m == 2 {
			pair, err := core.HRMerge(samples[0].Clone(), samples[1].Clone(), randx.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if pair.Size() != minSize || pair.ParentSize != parents || pair.Kind != core.ReservoirKind {
				t.Fatalf("HRMerge reports %v, MergeK size %d parent %d", pair, minSize, parents)
			}
		}
	}
}

// foreignSource hides the RNG's Split, like any Source the caller brings.
type foreignSource struct{ r *randx.RNG }

func (f foreignSource) Uint64() uint64 { return f.r.Uint64() }

func TestMergeKEdges(t *testing.T) {
	ctx := context.Background()
	r := randx.New(7)
	parts := mergeKPartitions(3)
	a, b := srsOf(parts[0], 12, r), srsOf(parts[1], 9, r)

	if _, err := core.MergeK[int64](ctx, nil, r, 1); err == nil {
		t.Error("MergeK of nothing succeeded")
	}

	// One input: a copy, never the input itself.
	one, err := core.MergeK(ctx, []*core.Sample[int64]{a}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one == a || one.Hist == a.Hist || !bytes.Equal(encoded(t, one), encoded(t, a)) {
		t.Error("MergeK of one input must return an equal, distinct sample")
	}

	// An exhaustive input belongs to the consuming pairwise merges.
	ex := &core.Sample[int64]{Kind: core.Exhaustive, Hist: histogram.FromBag(mergeKCfg.SizeModel, parts[2]),
		ParentSize: int64(len(parts[2])), Q: 1, Config: mergeKCfg}
	if _, err := core.MergeK(ctx, []*core.Sample[int64]{a, ex}, r, 1); err == nil {
		t.Error("MergeK accepted an exhaustive input")
	}

	// An input that sampled nothing empties the merge but keeps the parents.
	empty := srsOf(parts[2], 0, r)
	got, err := core.MergeK(ctx, []*core.Sample[int64]{a, empty, b}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 || got.ParentSize != a.ParentSize+b.ParentSize+empty.ParentSize {
		t.Errorf("merge with an empty input: %v", got)
	}

	// Mismatched footprints are refused, as by the pairwise merges.
	other := srsOf(parts[2], 9, r)
	other.Config = core.ConfigForNF(128)
	if _, err := core.MergeK(ctx, []*core.Sample[int64]{a, other}, r, 1); err == nil {
		t.Error("MergeK merged across footprints")
	}

	// A foreign source cannot be split: the run is sequential on the shared
	// stream and two identical runs agree, whatever parallelism asks for.
	in := []*core.Sample[int64]{a, b, srsOf(parts[2], 10, r)}
	f1, err := core.MergeK(ctx, in, foreignSource{randx.New(5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := core.MergeK(ctx, in, foreignSource{randx.New(5)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, f1), encoded(t, f2)) {
		t.Error("foreign-source runs diverged")
	}

	// A done context is reported, not merged through.
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := core.MergeK(done, in, r, 1); err == nil {
		t.Error("MergeK ignored a cancelled context")
	}
}
