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

// bernOf draws a Bern(q) sample of the bag d.
func bernOf(d []int64, q float64, cfg core.Config, src randx.Source) *core.Sample[int64] {
	b := core.NewBernoulli[int64](cfg, q, src)
	for _, v := range d {
		b.Feed(v)
	}
	s, _ := b.Finalize()
	return s
}

// exhOf is the exhaustive sample of the bag d: all of it.
func exhOf(d []int64, cfg core.Config) *core.Sample[int64] {
	return &core.Sample[int64]{Kind: core.Exhaustive, Hist: histogram.FromBag(cfg.SizeModel, d),
		ParentSize: int64(len(d)), Q: 1, Config: cfg}
}

// smallPartitions builds m partitions of 10–12 distinct values of a universe
// of 24: each one's exhaustive sample fits ConfigForNF(12), their join does
// not.
func smallPartitions(m int) [][]int64 {
	parts := make([][]int64, m)
	for i := range parts {
		parts[i] = make([]int64, 10+i%3)
		for j := range parts[i] {
			parts[i][j] = int64((5*j + i) % 24)
		}
	}
	return parts
}

// mergeKSet is one shape of input set a served merge meets beyond HR's
// all-reservoir one: input i is draw(i, Dᵢ) under cfg, and the set is merged
// by MergeK or, for SB, by core.UnionBernoulli.
type mergeKSet struct {
	name  string
	cfg   core.Config
	parts func(m int) [][]int64
	draw  func(i int, d []int64, cfg core.Config, r *randx.RNG) *core.Sample[int64]
	union bool
}

func (ms mergeKSet) merge(samples []*core.Sample[int64], src *randx.RNG, parallelism int) (*core.Sample[int64], error) {
	if ms.union {
		return core.UnionBernoulli(samples, src)
	}
	return core.MergeK(context.Background(), samples, src, parallelism)
}

// mergeKSets: HB's Bernoulli inputs at unequal rates over unequal partitions,
// Bernoulli beside reservoir, reservoir beside exhaustive, Bernoulli beside
// exhaustive, exhaustive inputs whose join exceeds F, and SB's union.
func mergeKSets() []mergeKSet {
	type draw = func(i int, d []int64, cfg core.Config, r *randx.RNG) *core.Sample[int64]
	srs := func(i int, d []int64, _ core.Config, r *randx.RNG) *core.Sample[int64] { return srsOf(d, 8+4*(i%3), r) }
	bern := func(i int, d []int64, cfg core.Config, r *randx.RNG) *core.Sample[int64] {
		return bernOf(d, []float64{0.9, 0.5, 0.7, 0.35}[i%4], cfg, r)
	}
	exh := func(_ int, d []int64, cfg core.Config, _ *randx.RNG) *core.Sample[int64] { return exhOf(d, cfg) }
	alt := func(even, odd draw) draw {
		return func(i int, d []int64, cfg core.Config, r *randx.RNG) *core.Sample[int64] {
			if i%2 == 0 {
				return even(i, d, cfg, r)
			}
			return odd(i, d, cfg, r)
		}
	}
	return []mergeKSet{
		{"hb", mergeKCfg, mergeKPartitions, bern, false},
		{"bernoulli+reservoir", mergeKCfg, mergeKPartitions, alt(srs, bern), false},
		{"reservoir+exhaustive", mergeKCfg, mergeKPartitions, alt(srs, exh), false},
		{"bernoulli+exhaustive", mergeKCfg, mergeKPartitions, alt(bern, exh), false},
		{"exhaustive-over-F", core.ConfigForNF(12), smallPartitions, exh, false},
		{"sb-union", mergeKCfg, mergeKPartitions, bern, true},
	}
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
	// The other regimes draw fresh inputs every trial too. Their merged size
	// may be random, so the expected counts follow the observed total and the
	// without-replacement factor uses the mean size k̄ (a Bernoulli result's
	// independent inclusions shrink the cell variances by about the same
	// 1 − k̄/N).
	for ci, ms := range mergeKSets() {
		t.Run(ms.name, func(t *testing.T) {
			seed := uint64(1100 + ci)
			r := randx.New(seed)
			parts := ms.parts(4)
			mult := make([]float64, 24)
			var n int64
			for _, d := range parts {
				for _, v := range d {
					mult[v]++
				}
				n += int64(len(d))
			}
			counts := make([]int64, 24)
			var total int64
			for trial := 0; trial < trials; trial++ {
				samples := make([]*core.Sample[int64], len(parts))
				for i, d := range parts {
					samples[i] = ms.draw(i, d, ms.cfg, r)
				}
				got, err := ms.merge(samples, r.Split(), 1)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !ms.union && got.Footprint() > ms.cfg.FootprintBytes {
					t.Fatalf("seed %d: merged %v exceeds F = %dB", seed, got, ms.cfg.FootprintBytes)
				}
				got.Hist.Each(func(v, c int64) { counts[v] += c })
				total += got.Size()
			}
			expected := make([]float64, 24)
			for v := range expected {
				expected[v] = float64(total) * mult[v] / float64(n)
			}
			res, err := stats.ChiSquareGOF(counts, expected, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := float64(total) / trials
			res.Stat *= float64(n-1) / (float64(n) - k)
			if p := 1 - stats.ChiSquareCDF(res.Stat, res.DF); p < 1e-4 {
				t.Errorf("seed %d: merged sample (mean size %.1f of %d) is not uniform over the union: chi2=%.2f df=%d p=%.3g",
					seed, k, n, res.Stat, res.DF, p)
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
	// The other regimes over the same partitions, inputs fixed across trials.
	// A reservoir result of size k is the hypergeometric split above, given k.
	// A Bernoulli or exhaustive result at rate q thinned input i at q/qᵢ, so
	// Lᵢ ~ Binomial(|Sᵢ|, q/qᵢ). Each trial's deviation is scored against its
	// own law, so a rate or a split that favours some input shows either way.
	for ci, ms := range mergeKSets() {
		seed := uint64(2100 + ci)
		r := randx.New(seed)
		const m = 4
		samples := make([]*core.Sample[int64], m)
		var n int64
		for i := range samples {
			d := make([]int64, 30+17*(i%4))
			for j := range d {
				d[j] = int64(1000*i + j/2)
			}
			samples[i] = ms.draw(i, d, ms.cfg, r)
			n += int64(len(d))
		}
		dev, devSq, wantVar := make([]float64, m), make([]float64, m), make([]float64, m)
		for trial := 0; trial < trials; trial++ {
			got, err := ms.merge(samples, r.Split(), 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ms.name, seed, err)
			}
			l := make([]float64, m)
			got.Hist.Each(func(v, c int64) { l[v/1000] += float64(c) })
			for i, s := range samples {
				var mean, variance float64
				if k := float64(got.Size()); got.Kind == core.ReservoirKind {
					p := float64(s.ParentSize) / float64(n)
					mean, variance = k*p, k*p*(1-p)*(float64(n)-k)/float64(n-1)
				} else {
					rate := got.Q
					if s.Kind == core.BernoulliKind {
						rate /= s.Q
					}
					size := float64(s.Size())
					mean, variance = size*rate, size*rate*(1-rate)
				}
				dev[i] += l[i] - mean
				devSq[i] += (l[i] - mean) * (l[i] - mean)
				wantVar[i] += variance
			}
		}
		for i := range samples {
			if math.Abs(dev[i]) > 5*math.Sqrt(wantVar[i])+1e-9 {
				t.Errorf("%s seed %d: input %d contributes %.4f per merge more than its law says", ms.name, seed, i, dev[i]/trials)
			}
			if math.Abs(devSq[i]-wantVar[i]) > 0.08*wantVar[i]+1e-9 {
				t.Errorf("%s seed %d: input %d contribution variance %.4f, want %.4f", ms.name, seed, i, devSq[i]/trials, wantVar[i]/trials)
			}
		}
	}
}

// TestMergeKShapeAndPurity: the result has size minᵢ|Sᵢ|, parent Σ|Dᵢ| and
// reservoir kind (for two inputs, what HRMerge reports); it is byte-identical
// for every parallelism; and the inputs are bit-for-bit what they were. Then
// the same for every other regime, and the rules only those regimes have.
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

	// Every other regime: the shape its rule names, byte-identical at every
	// parallelism, inputs untouched. With a reservoir input the result is a
	// reservoir sample of the smallest non-exhaustive |Sᵢ|; otherwise a
	// Bernoulli one at q = min(q(ΣNᵢ, p, n_F), minᵢ qᵢ) (SB: minᵢ qᵢ), or, over
	// F, a reservoir sample of n_F.
	for _, ms := range mergeKSets() {
		const seed = 41
		r := randx.New(seed)
		var samples []*core.Sample[int64]
		var before [][]byte
		var parents int64
		k, q := int64(math.MaxInt64), 1.0
		reservoir := false
		for i, d := range ms.parts(4) {
			s := ms.draw(i, d, ms.cfg, r)
			samples = append(samples, s)
			before = append(before, encoded(t, s))
			parents += s.ParentSize
			switch s.Kind {
			case core.ReservoirKind:
				reservoir = true
				k = min(k, s.Size())
			case core.BernoulliKind:
				k, q = min(k, s.Size()), min(q, s.Q)
			}
		}
		if !ms.union && q < 1 {
			q = min(q, core.QApprox(parents, core.DefaultExceedProb, ms.cfg.NF()))
		}
		var first []byte
		for _, par := range []int{1, 2, 0} {
			got, err := ms.merge(samples, randx.New(seed), par)
			if err != nil {
				t.Fatalf("%s: %v", ms.name, err)
			}
			switch {
			case reservoir:
				if got.Kind != core.ReservoirKind || got.Size() != k {
					t.Fatalf("%s: merged %v, want a reservoir sample of size %d", ms.name, got, k)
				}
			case ms.name == "exhaustive-over-F":
				if got.Kind != core.ReservoirKind || got.Size() != ms.cfg.NF() {
					t.Fatalf("%s: merged %v, want a reservoir sample of n_F = %d", ms.name, got, ms.cfg.NF())
				}
			case got.Kind != core.BernoulliKind || got.Q != q:
				t.Fatalf("%s: merged %v, want a Bernoulli sample at q = %v", ms.name, got, q)
			}
			if got.ParentSize != parents || got.Footprint() > ms.cfg.FootprintBytes && !ms.union {
				t.Fatalf("%s: merged %v, want parent %d within %dB", ms.name, got, parents, ms.cfg.FootprintBytes)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", ms.name, err)
			}
			if b := encoded(t, got); first == nil {
				first = b
			} else if !bytes.Equal(first, b) {
				t.Fatalf("%s seed %d: parallelism %d changed the merged sample", ms.name, seed, par)
			}
		}
		for i, s := range samples {
			if !bytes.Equal(before[i], encoded(t, s)) {
				t.Fatalf("%s seed %d: merge mutated input %d", ms.name, seed, i)
			}
		}
	}

	ctx := context.Background()
	r := randx.New(43)
	parts := mergeKPartitions(3)

	// An exhaustive input never limits k, however small it is.
	tiny := exhOf(parts[1][:5], mergeKCfg)
	got, err := core.MergeK(ctx, []*core.Sample[int64]{srsOf(parts[0], 12, r), tiny, srsOf(parts[2], 9, r)}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != core.ReservoirKind || got.Size() != 9 || got.ParentSize != int64(len(parts[0])+5+len(parts[2])) {
		t.Errorf("reservoir + a 5-element exhaustive input: merged %v, want size 9", got)
	}

	// Exhaustive inputs whose join fits F merge to that join, still exhaustive.
	var exh []*core.Sample[int64]
	var all []int64
	for _, d := range parts {
		exh = append(exh, exhOf(d, mergeKCfg))
		all = append(all, d...)
	}
	got, err = core.MergeK(ctx, exh, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != core.Exhaustive || got.Q != 1 || !got.Hist.Equal(histogram.FromBag(mergeKCfg.SizeModel, all)) {
		t.Errorf("exhaustive inputs within F: merged %v, want their exhaustive join", got)
	}

	// The smallest input rate binds when it is below q(ΣNᵢ, p, n_F).
	got, err = core.MergeK(ctx, []*core.Sample[int64]{bernOf(parts[0], 0.9, mergeKCfg, r), bernOf(parts[1], 0.05, mergeKCfg, r)}, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != core.BernoulliKind || got.Q != 0.05 {
		t.Errorf("Bernoulli inputs at 0.9 and 0.05: merged %v, want q = 0.05", got)
	}

	// The footprint bound: with p = 0.05 the merged Bern(q) sample overflows
	// n_F — and falls back to a reservoir sample of n_F — on at most about a
	// p share of seeds, and no result ever exceeds F.
	cfg := core.ConfigForNF(128)
	cfg.ExceedProb = 0.05
	big := make([][]int64, 4)
	for i := range big {
		for j := 0; j < 150; j++ {
			big[i] = append(big[i], int64(150*i+j))
		}
	}
	const seeds = 2000
	fallbacks := 0
	for seed := uint64(0); seed < seeds; seed++ {
		r := randx.New(seed)
		in := make([]*core.Sample[int64], len(big))
		for i, d := range big {
			in[i] = bernOf(d, []float64{0.9, 0.5, 0.7, 0.35}[i], cfg, r)
		}
		got, err := core.MergeK(ctx, in, r.Split(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Footprint() > cfg.FootprintBytes {
			t.Fatalf("seed %d: merged %v exceeds F = %dB", seed, got, cfg.FootprintBytes)
		}
		if got.Kind == core.ReservoirKind {
			fallbacks++
			if got.Size() != cfg.NF() {
				t.Fatalf("seed %d: fallback %v, want n_F = %d", seed, got, cfg.NF())
			}
		}
	}
	rate, p := float64(fallbacks)/seeds, cfg.ExceedProb
	if fallbacks == 0 || rate > p+3*math.Sqrt(p*(1-p)/seeds) {
		t.Errorf("overflow fallback on %d of %d seeds (%.4f), want some and at most about p = %v", fallbacks, seeds, rate, p)
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
