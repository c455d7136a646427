// Benchmarks regenerating every figure of the paper's evaluation (§5) at
// benchmark-friendly scale, plus ablation benches for the design choices
// called out in DESIGN.md. The full-scale figures are produced by
// cmd/swbench (swbench -exp all -full); these benches exercise the same
// pipelines under testing.B so the shapes can be tracked continuously.
//
// Naming: BenchmarkFig<N>... corresponds to paper Figure <N>.
package samplewh

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/experiments"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/server"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
	"samplewh/internal/workload"
)

// benchOpts are the shared figure-bench parameters: n_F = 8192 as in the
// paper, single run per measurement.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Runs: 1, NF: 8192, P: 0.001}
}

// benchPipeline runs the partition-sample-merge pipeline once per iteration
// and reports elements/op plus the split of sampling vs merging time.
func benchPipeline(b *testing.B, alg experiments.Alg, dist workload.Distribution, n int64, parts int) {
	b.Helper()
	rng := randx.New(7)
	opt := benchOpts()
	var sampleNS, mergeNS, size float64
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPipeline(alg, dist, n, parts, opt, rng)
		if err != nil {
			b.Fatal(err)
		}
		sampleNS += float64(res.SampleTime.Nanoseconds())
		mergeNS += float64(res.MergeTime.Nanoseconds())
		size += float64(res.Merged.Size())
	}
	b.ReportMetric(sampleNS/float64(b.N), "sample-ns/op")
	b.ReportMetric(mergeNS/float64(b.N), "merge-ns/op")
	b.ReportMetric(size/float64(b.N), "sample-size")
}

// BenchmarkFig5QRate regenerates Figure 5's grid: the closed-form
// approximation (1) evaluated across the paper's parameter grid, with the
// exact-bisection ground truth compared once per grid point.
func BenchmarkFig5QRate(b *testing.B) {
	ps := []float64{0.00001, 0.0001, 0.001, 0.005}
	nfs := []int64{100, 1000, 10000}
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range ps {
				for _, nf := range nfs {
					_ = core.QApprox(100000, p, nf)
				}
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range ps {
				for _, nf := range nfs {
					_ = core.QExact(100000, p, nf, 1e-12)
				}
			}
		}
	})
	b.Run("relerr-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maxErr := 0.0
			for _, p := range ps {
				for _, nf := range nfs {
					if e := core.QApproxRelError(100000, p, nf); e > maxErr {
						maxErr = e
					}
				}
			}
			if maxErr > 0.03 {
				b.Fatalf("relative error %v exceeds the paper's 3%% bound", maxErr)
			}
		}
	})
}

// speedupBench parameterizes one speedup figure: fixed 2^20 unique-value
// population, partition count swept as in Figures 9–11.
func speedupBench(b *testing.B, alg experiments.Alg) {
	for _, parts := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			benchPipeline(b, alg, workload.Unique, 1<<20, parts)
		})
	}
}

// BenchmarkFig9SpeedupSB regenerates Figure 9 (Algorithm SB speedup).
func BenchmarkFig9SpeedupSB(b *testing.B) { speedupBench(b, experiments.AlgSB) }

// BenchmarkFig10SpeedupHB regenerates Figure 10 (Algorithm HB speedup).
func BenchmarkFig10SpeedupHB(b *testing.B) { speedupBench(b, experiments.AlgHB) }

// BenchmarkFig11SpeedupHR regenerates Figure 11 (Algorithm HR speedup).
func BenchmarkFig11SpeedupHR(b *testing.B) { speedupBench(b, experiments.AlgHR) }

// scaleupBench parameterizes one scaleup figure: 32K elements per
// partition, scale factor = partition count, three data distributions as in
// Figures 12–14.
func scaleupBench(b *testing.B, alg experiments.Alg) {
	const per = 32 * 1024
	for _, dist := range []workload.Distribution{workload.Unique, workload.Uniform, workload.Zipfian} {
		for _, scale := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/scale=%d", dist, scale), func(b *testing.B) {
				benchPipeline(b, alg, dist, int64(scale)*per, scale)
			})
		}
	}
}

// BenchmarkFig12ScaleupSB regenerates Figure 12 (Algorithm SB scaleup).
func BenchmarkFig12ScaleupSB(b *testing.B) { scaleupBench(b, experiments.AlgSB) }

// BenchmarkFig13ScaleupHB regenerates Figure 13 (Algorithm HB scaleup).
func BenchmarkFig13ScaleupHB(b *testing.B) { scaleupBench(b, experiments.AlgHB) }

// BenchmarkFig14ScaleupHR regenerates Figure 14 (Algorithm HR scaleup).
func BenchmarkFig14ScaleupHR(b *testing.B) { scaleupBench(b, experiments.AlgHR) }

// sampleSizeBench parameterizes Figures 15–16: fixed 32K-element
// partitions, growing partition counts; the interesting metric is the
// reported sample-size.
func sampleSizeBench(b *testing.B, alg experiments.Alg) {
	const per = 32 * 1024
	for _, parts := range []int{1, 8, 32} {
		for _, dist := range []workload.Distribution{workload.Unique, workload.Uniform} {
			b.Run(fmt.Sprintf("%s/parts=%d", dist, parts), func(b *testing.B) {
				benchPipeline(b, alg, dist, int64(parts)*per, parts)
			})
		}
	}
}

// BenchmarkFig15SampleSizeHB regenerates Figure 15 (Algorithm HB merged
// sample sizes; the sample-size metric shrinks below n_F = 8192).
func BenchmarkFig15SampleSizeHB(b *testing.B) { sampleSizeBench(b, experiments.AlgHB) }

// BenchmarkFig16SampleSizeHR regenerates Figure 16 (Algorithm HR merged
// sample sizes; the sample-size metric stays pinned at n_F = 8192).
func BenchmarkFig16SampleSizeHR(b *testing.B) { sampleSizeBench(b, experiments.AlgHR) }

// BenchmarkMergeTreeShape is the DESIGN.md ablation comparing the serial
// left-deep merge chain of the paper's experiments against a balanced
// binary merge tree, for both merge families.
func BenchmarkMergeTreeShape(b *testing.B) {
	const parts = 64
	const per = 16 * 1024
	cfg := core.ConfigForNF(4096)
	build := func(rng *randx.RNG, hb bool) []*core.Sample[int64] {
		gens := workload.Partitions(workload.Spec{Dist: workload.Unique, N: parts * per, Seed: 3}, parts)
		out := make([]*core.Sample[int64], parts)
		for i, g := range gens {
			var smp core.Sampler[int64]
			if hb {
				smp = core.NewHB[int64](cfg, g.Len(), rng.Split())
			} else {
				smp = core.NewHR[int64](cfg, rng.Split())
			}
			for {
				v, ok := g.Next()
				if !ok {
					break
				}
				smp.Feed(v)
			}
			s, err := smp.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			out[i] = s
		}
		return out
	}
	for _, c := range []struct {
		name  string
		hb    bool
		merge core.MergeFunc[int64]
		tree  bool
	}{
		{"HR/serial", false, core.HRMerge[int64], false},
		{"HR/tree", false, core.HRMerge[int64], true},
		{"HB/serial", true, core.HBMerge[int64], false},
		{"HB/tree", true, core.HBMerge[int64], true},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := randx.New(11)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				samples := build(rng, c.hb)
				b.StartTimer()
				var err error
				if c.tree {
					_, err = core.MergeTree(samples, c.merge, rng)
				} else {
					_, err = core.MergeSerial(samples, c.merge, rng)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiPurgeVsHB is the DESIGN.md ablation confirming the paper's
// §4.1 claim that the multiple-purge Bernoulli variant is dominated by
// Algorithm HB.
func BenchmarkMultiPurgeVsHB(b *testing.B) {
	const n = 1 << 18
	cfg := core.ConfigForNF(4096)
	feed := func(smp core.Sampler[int64]) {
		g := workload.New(workload.Spec{Dist: workload.Unique, N: n, Seed: 5})
		for {
			v, ok := g.Next()
			if !ok {
				break
			}
			smp.Feed(v)
		}
		if _, err := smp.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("HB", func(b *testing.B) {
		rng := randx.New(13)
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			// Under-declare N to stress the bound machinery equally.
			feed(core.NewHB[int64](cfg, n/2, rng.Split()))
		}
	})
	b.Run("MultiPurge", func(b *testing.B) {
		rng := randx.New(13)
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			feed(core.NewMultiPurge[int64](cfg, n/2, 0, rng.Split()))
		}
	})
}

// BenchmarkHRMergeAliasVsInversion is the DESIGN.md ablation for the §4.2
// optimization: repeated symmetric HR merges drawing the hypergeometric
// split by per-merge inversion (building the pmf every time) versus the
// cached alias table of SymmetricMerger.
func BenchmarkHRMergeAliasVsInversion(b *testing.B) {
	cfg := core.ConfigForNF(8192)
	const per = 64 * 1024
	build := func(rng *randx.RNG) (*core.Sample[int64], *core.Sample[int64]) {
		mk := func(lo int64) *core.Sample[int64] {
			hr := core.NewHR[int64](cfg, rng.Split())
			g := workload.NewRange(workload.Spec{Dist: workload.Unique, N: 2 * per, Seed: 21}, lo, lo+per)
			for {
				v, ok := g.Next()
				if !ok {
					break
				}
				hr.Feed(v)
			}
			s, err := hr.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
		return mk(0), mk(per)
	}
	b.Run("inversion", func(b *testing.B) {
		rng := randx.New(23)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s1, s2 := build(rng)
			b.StartTimer()
			if _, err := core.HRMerge(s1, s2, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alias-cached", func(b *testing.B) {
		rng := randx.New(23)
		m := core.NewSymmetricMerger[int64]()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s1, s2 := build(rng)
			b.StartTimer()
			if _, err := m.Merge(s1, s2, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// hrSamples draws one Algorithm HR sample from each of parts partitions of per
// unique values.
func hrSamples(b *testing.B, cfg core.Config, parts, per int, rng *randx.RNG) []*core.Sample[int64] {
	return partitionSamples(b, parts, per, func() core.Sampler[int64] { return core.NewHR[int64](cfg, rng.Split()) })
}

// partitionSamples draws one sample, from a sampler newSampler makes, of each
// of parts partitions of per unique values.
func partitionSamples(b *testing.B, parts, per int, newSampler func() core.Sampler[int64]) []*core.Sample[int64] {
	gens := workload.Partitions(workload.Spec{Dist: workload.Unique, N: int64(parts * per), Seed: 31}, parts)
	out := make([]*core.Sample[int64], parts)
	for i, g := range gens {
		smp := newSampler()
		for v, ok := g.Next(); ok; v, ok = g.Next() {
			smp.Feed(v)
		}
		s, err := smp.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// BenchmarkMergeTreeParallel compares serial and parallel balanced merge
// trees over 64 reservoir samples.
func BenchmarkMergeTreeParallel(b *testing.B) {
	const parts = 64
	const per = 16 * 1024
	cfg := core.ConfigForNF(4096)
	for _, par := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("parallelism=%d", par)
		if par == 0 {
			name = "parallelism=max"
		}
		b.Run(name, func(b *testing.B) {
			rng := randx.New(33)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				samples := hrSamples(b, cfg, parts, per, rng)
				b.StartTimer()
				if _, err := core.MergeTreeParallel(samples, core.HRMerge[int64], rng, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeK sets the one-pass k-way merge beside what a served estimate
// ran before it — a clone of every cached sample, then the parallel tree of
// consuming HRMerges — on one fixed set of inputs in the served shape: 16
// partitions of 65536 unique rows sampled at n_F = 8192. MergeK only reads its
// inputs, so it needs no clones and nothing is rebuilt between iterations. The
// hb rows merge the same partitions sampled by Algorithm HB (Bernoulli
// inputs, thinned to one rate); hr+exhaustive adds a 4096-row partition the HR
// sampler kept whole. The served rows merge the HR samples with their entries
// in value order, as the store hands them out; the served+repeats rows do the
// same over the served data's shape — partition i is 65536 uniform draws in
// [i·S, i·S+2S), S = 16·65536 — whose samples keep a few repeated values, so
// the selection maps positions around them. The quantile row is what a
// served quantile pays after that merge: NewOrdered and Quantile(0.9).
func BenchmarkMergeK(b *testing.B) {
	const parts = 16
	const per = 64 * 1024
	cfg := core.ConfigForNF(8192)
	rng := randx.New(33)
	samples := hrSamples(b, cfg, parts, per, rng)
	served := make([]*core.Sample[int64], parts)
	for i, s := range samples {
		served[i] = s.Clone()
		served[i].Hist.Sort()
	}
	hb := partitionSamples(b, parts, per, func() core.Sampler[int64] { return core.NewHB[int64](cfg, per, rng.Split()) })
	withExh := append(slices.Clone(samples), hrSamples(b, cfg, 1, 4096, rng)[0])
	repeats := make([]*core.Sample[int64], parts)
	for i := range repeats {
		const stride = 16 * per
		hr := core.NewHR[int64](cfg, rng.Split())
		for j := 0; j < per; j++ {
			hr.Feed(int64(i)*stride + randx.Int64n(rng, 2*stride))
		}
		s, err := hr.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if s.Hist.Distinct() == int(s.Size()) {
			b.Fatal("served-shape sample kept no repeated value")
		}
		s.Hist.Sort()
		repeats[i] = s
	}
	kway := func(in []*core.Sample[int64], par int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MergeK(context.Background(), in, rng, par); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, par := range []int{1, 0} {
		suffix := fmt.Sprintf("/parallelism=%d", par)
		if par == 0 {
			suffix = "/parallelism=max"
		}
		b.Run("clone+tree"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				own := make([]*core.Sample[int64], parts)
				for j, s := range samples {
					own[j] = s.Clone()
				}
				if _, err := core.MergeTreeParallel(own, core.HRMerge[int64], rng, par); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("kway"+suffix, kway(samples, par))
		b.Run("hb"+suffix, kway(hb, par))
		b.Run("hr+exhaustive"+suffix, kway(withExh, par))
		b.Run("served"+suffix, kway(served, par))
		b.Run("served+repeats"+suffix, kway(repeats, par))
	}
	merged, err := core.MergeK(context.Background(), repeats, rng, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("quantile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oe, err := estimate.NewOrdered(merged, func(a, b int64) bool { return a < b })
			if err != nil {
				b.Fatal(err)
			}
			if _, err := oe.Quantile(0.9); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// insertionOrderEncoding lays s out as stores wrote samples before value order
// was the stored order (storage.EncodeSample's format, the entries in the
// order the histogram holds them): the files older partitions still are.
func insertionOrderEncoding(s *core.Sample[int64]) []byte {
	buf := binary.BigEndian.AppendUint32(nil, 0x53574831)
	buf = append(buf, 2, byte(s.Kind))
	buf = binary.AppendVarint(buf, s.ParentSize)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Q))
	buf = binary.AppendVarint(buf, s.Config.FootprintBytes)
	buf = binary.AppendVarint(buf, s.Config.SizeModel.ValueBytes)
	buf = binary.AppendVarint(buf, s.Config.SizeModel.CountBytes)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Config.ExceedProb))
	buf = binary.AppendUvarint(buf, uint64(s.Hist.Distinct()))
	s.Hist.Each(func(v, c int64) {
		buf = binary.AppendVarint(buf, v)
		buf = binary.AppendVarint(buf, c)
	})
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
}

// BenchmarkDecodeSample is what a cold read pays per partition: one
// 8192-entry HR sample (a 41 KB file) decoded from value order — each value
// checked against the one before it, no set built — and from the insertion
// order files written before that carry, which still costs the set.
func BenchmarkDecodeSample(b *testing.B) {
	s := hrSamples(b, core.ConfigForNF(8192), 1, 64*1024, randx.New(33))[0]
	legacy := insertionOrderEncoding(s)
	ordered, err := storage.EncodeSample(s, storage.Int64Codec{})
	if err != nil {
		b.Fatal(err)
	}
	if got, err := storage.DecodeSample(legacy, storage.Int64Codec{}); err != nil || !got.Hist.Equal(s.Hist) || len(legacy) != len(ordered) {
		b.Fatalf("insertion-order encoding does not decode to the sample: %v", err)
	}
	for _, file := range []struct {
		name string
		data []byte
	}{{"value-order", ordered}, {"legacy-order", legacy}} {
		b.Run(file.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(file.data)))
			for i := 0; i < b.N; i++ {
				if _, err := storage.DecodeSample(file.data, storage.Int64Codec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistogramClone is what a consuming merge pays per input before it
// touches it: a copy of the 8192 entries, and no index until the merge's
// first mutation builds one.
func BenchmarkHistogramClone(b *testing.B) {
	s := hrSamples(b, core.ConfigForNF(8192), 1, 64*1024, randx.New(33))[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Hist.Clone().Distinct() != s.Hist.Distinct() {
			b.Fatal("clone lost entries")
		}
	}
}

// BenchmarkRollCycle is the write side of a served roll without HTTP, journal
// or sampling: one RollIn of an 8192-entry HR sample and one RollOut of the
// oldest partition, over a file store that keeps 64 partitions attached — the
// sample's atomic put, its sidecar build and blob, and the manifest, twice.
// catalog-B/op is what the store's blob side channel was handed per cycle.
func BenchmarkRollCycle(b *testing.B) {
	const parts = 64
	reg := obs.NewRegistry()
	st, err := storage.NewFileStore[int64](b.TempDir(), storage.Int64Codec{})
	if err != nil {
		b.Fatal(err)
	}
	st.Instrument(reg)
	w, _, err := warehouse.Open[int64](st, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.ConfigForNF(8192)
	if err := w.CreateDataset("d", warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: cfg}); err != nil {
		b.Fatal(err)
	}
	samples := hrSamples(b, cfg, parts, 64*1024, randx.New(33))
	for i, s := range samples {
		if err := w.RollIn("d", fmt.Sprintf("p%06d", i), s); err != nil {
			b.Fatal(err)
		}
	}
	written := reg.Counter("storage.file.blob_bytes_written")
	before := written.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RollIn("d", fmt.Sprintf("p%06d", parts+i), samples[i%parts]); err != nil {
			b.Fatal(err)
		}
		if err := w.RollOut("d", fmt.Sprintf("p%06d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(written.Value()-before)/float64(b.N), "catalog-B/op")
}

// BenchmarkFromSample is the sidecar build inside that roll-in: 8192 distinct
// sampled values, so nearly every one misses the heavy-hitter table.
func BenchmarkFromSample(b *testing.B) {
	s := hrSamples(b, core.ConfigForNF(8192), 1, 64*1024, randx.New(33))[0]
	b.ReportAllocs()
	for b.Loop() {
		sketch.FromSample(s)
	}
}

// BenchmarkInstrumentationOverhead measures what the observability layer
// costs on the sampler hot path (HR Feed): nothing when uninstrumented or
// instrumented against a nil registry (the no-op methods compile to nil
// checks), and a few atomic adds per element with a live registry.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	cfg := core.ConfigForNF(8192)
	run := func(b *testing.B, instrument func(*core.HR[int64])) {
		rng := randx.New(41)
		smp := core.NewHR[int64](cfg, rng)
		if instrument != nil {
			instrument(smp)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			smp.Feed(int64(i))
		}
	}
	b.Run("uninstrumented", func(b *testing.B) {
		run(b, nil)
	})
	b.Run("nil-registry", func(b *testing.B) {
		run(b, func(smp *core.HR[int64]) { smp.Instrument(nil) })
	})
	b.Run("metrics", func(b *testing.B) {
		run(b, func(smp *core.HR[int64]) { smp.Instrument(obs.NewRegistry()) })
	})
}

// BenchmarkSamplerThroughput measures raw per-element feeding cost of every
// scheme on the three workloads — the substrate number behind all the
// figure benches.
func BenchmarkSamplerThroughput(b *testing.B) {
	cfg := core.ConfigForNF(8192)
	for _, dist := range []workload.Distribution{workload.Unique, workload.Uniform, workload.Zipfian} {
		for _, alg := range []string{"SB", "HB", "HR", "HR-FeedAll", "Concise"} {
			b.Run(fmt.Sprintf("%s/%s", alg, dist), func(b *testing.B) {
				rng := randx.New(17)
				if alg == "HR-FeedAll" {
					feedAllThroughput(b, cfg, dist, rng)
					return
				}
				g := workload.New(workload.Spec{Dist: dist, N: int64(b.N) + 1, Seed: 9})
				var smp core.Sampler[int64]
				switch alg {
				case "SB":
					smp = core.NewSB[int64](cfg, 0.25, rng)
				case "HB":
					smp = core.NewHB[int64](cfg, int64(b.N)+1, rng)
				case "HR":
					smp = core.NewHR[int64](cfg, rng)
				case "Concise":
					smp = core.NewConcise[int64](cfg, 0, rng)
				}
				b.SetBytes(8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, _ := g.Next()
					smp.Feed(v)
				}
			})
		}
	}
}

// feedAllThroughput is BenchmarkSamplerThroughput's HR row fed as a served
// PUT feeds it: one op is a 4096-value chunk through core.FeedAll, so MB/s
// compares with the per-value rows while ns/op is per chunk.
func feedAllThroughput(b *testing.B, cfg core.Config, dist workload.Distribution, rng *randx.RNG) {
	const chunk = 4096
	g := workload.New(workload.Spec{Dist: dist, N: int64(b.N)*chunk + 1, Seed: 9})
	smp := core.NewHR[int64](cfg, rng)
	vals := make([]int64, chunk)
	b.SetBytes(8 * chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range vals {
			vals[j], _ = g.Next()
		}
		b.StartTimer()
		core.FeedAll(smp, vals)
	}
}

// BenchmarkIngestBody is one served PUT without the network: a 65 536-row
// body of the benchmark's shape (near-unique values over [0, 2·16·65 536),
// decimal text, one per line) through the ingest handler — scan,
// core.FeedAll into HR at n_F = 8192, Finalize, and the roll-in, whose
// sidecar is sketch.FromSample. Each op rolls the partition out again. The
// store is in memory with no journal (MemStore), or what swd
// runs on: a file store and a journal sealed with an fsync per PUT
// (FileStore+journal).
func BenchmarkIngestBody(b *testing.B) {
	const rows = 1 << 16
	rng := randx.New(7)
	var body []byte
	for range rows {
		body = strconv.AppendInt(body, int64(randx.Uint64n(rng, 2*16*rows)), 10)
		body = append(body, '\n')
	}
	run := func(b *testing.B, st storage.Store[int64], cfg server.Config) {
		wh, _, err := warehouse.Open[int64](st, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := wh.CreateDataset("bench", warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: core.ConfigForNF(8192)}); err != nil {
			b.Fatal(err)
		}
		h := server.New(wh, cfg).Handler()
		serve := func(method string, body io.Reader, want int) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, "/v1/datasets/bench/partitions/p", body))
			if w.Code != want {
				b.Fatalf("%s: %d %s", method, w.Code, w.Body)
			}
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			serve(http.MethodPut, bytes.NewReader(body), http.StatusCreated)
			serve(http.MethodDelete, nil, http.StatusOK)
		}
	}
	b.Run("MemStore", func(b *testing.B) {
		run(b, storage.NewMemStore[int64](storage.Int64Codec{}), server.Config{})
	})
	b.Run("FileStore+journal", func(b *testing.B) {
		dir := b.TempDir()
		st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
		if err != nil {
			b.Fatal(err)
		}
		journal, _, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{}, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer journal.Close()
		run(b, st, server.Config{Journal: journal})
	})
}
