// Command swbench regenerates the paper's evaluation figures (Brown & Haas,
// "Techniques for Warehousing of Sample Data", ICDE 2006).
//
// Each figure of the paper's §5 maps to an experiment name:
//
//	fig5        relative error of the q(N, p, nF) approximation (eq. 1)
//	fig9-11     speedup of SB / HB / HR vs partition count
//	fig12-14    scaleup of SB / HB / HR vs scale factor
//	fig15-16    final merged sample sizes for HB / HR
//	concise     §3.3 concise-sampling non-uniformity demonstration
//	uniformity  chi-square uniformity audit of all three pipelines
//	calibration confidence-interval coverage of all three pipelines
//	cluster     replicated scatter-gather ladder + one-shard-down kill drill
//	chaos       SIGKILL crash-recovery drill against a built swd
//	all         the figures, concise, uniformity and calibration
//
// The served read and write paths are timed by the bench/ harness
// (BENCHMARK.json), not here.
//
// The defaults run a laptop-scale configuration; pass -full for the paper's
// original sizes (N = 2^26 for speedup, scale factors to 512, 3 runs),
// which take considerably longer.
//
// Results print as aligned text tables by default; -json FILE additionally
// writes every report as one machine-readable JSON document ("-" selects
// stdout).
//
// Usage:
//
//	swbench -exp all
//	swbench -exp fig10 -logn 24 -runs 3
//	swbench -exp fig15 -parts 1,2,4,8,16,32,64,128,256,512,1024 -full
//	swbench -exp fig11 -json results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"samplewh/internal/experiments"
)

// jsonResult is one experiment's machine-readable output.
type jsonResult struct {
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// jsonDocument is the -json output: every report.
type jsonDocument struct {
	Results []jsonResult `json:"results"`
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: fig5, fig9..fig16, concise, uniformity, calibration, cluster, chaos, all")
		full        = flag.Bool("full", false, "use the paper's full-scale parameters (slow)")
		logN        = flag.Int("logn", 0, "speedup population size exponent (default 22, paper 26)")
		partsFlag   = flag.String("parts", "", "comma-separated partition counts")
		scalesFlag  = flag.String("scales", "", "comma-separated scale factors")
		per         = flag.Int64("per", 32*1024, "elements per partition (scaleup, sample sizes)")
		runs        = flag.Int("runs", 0, "repetitions per point (default 1, paper 3)")
		nf          = flag.Int64("nf", 8192, "sample-size bound nF")
		p           = flag.Float64("p", 0.001, "HB exceedance probability")
		seed        = flag.Uint64("seed", 1, "base RNG seed")
		parallelism = flag.Int("parallelism", 0, "sampler goroutines (0 = GOMAXPROCS)")
		trials      = flag.Int("trials", 0, "trials for concise/uniformity experiments")
		clShards    = flag.String("clshards", "1,2,4", "cluster experiment: comma-separated shard counts")
		clClients   = flag.Int("clclients", 8, "cluster experiment: closed-loop query clients")
		clDur       = flag.Duration("cldur", 2*time.Second, "cluster experiment: duration per rung")
		swdPath     = flag.String("swd", "", "chaos experiment: path to a built swd binary")
		ccycles     = flag.Int("ccycles", 20, "chaos experiment: SIGKILL/restart cycles")
		cworkers    = flag.Int("cworkers", 4, "chaos experiment: concurrent ingest workers")
		cbatch      = flag.Int("cbatch", 2000, "chaos experiment: values per ingest batch")
		cuptime     = flag.Duration("cuptime", 150*time.Millisecond, "chaos experiment: daemon uptime between kills")
		jsonOut     = flag.String("json", "", "also write results as JSON to this file (\"-\" = stdout)")
	)
	flag.Parse()

	opt := experiments.Options{
		Seed:        *seed,
		Runs:        *runs,
		Parallelism: *parallelism,
		NF:          *nf,
		P:           *p,
	}
	if opt.Runs == 0 {
		opt.Runs = 1
		if *full {
			opt.Runs = 3
		}
	}
	speedupLogN := *logN
	if speedupLogN == 0 {
		speedupLogN = 22
		if *full {
			speedupLogN = 26
		}
	}
	parts := parseInts(*partsFlag)
	scales := parseInts(*scalesFlag)
	if len(parts) == 0 && !*full {
		parts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	if len(scales) == 0 && !*full {
		scales = []int{8, 16, 32, 64, 128}
	}

	var collected []jsonResult
	emit := func(name string, r *experiments.Report, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(r)
		collected = append(collected, jsonResult{
			Name:   name,
			Title:  r.Title,
			Header: r.Header,
			Rows:   r.Rows,
			Notes:  r.Notes,
		})
		return nil
	}

	run := func(name string) error {
		switch name {
		case "fig5":
			return emit(name, experiments.Fig5(), nil)
		case "fig9", "fig10", "fig11":
			alg := map[string]experiments.Alg{"fig9": experiments.AlgSB, "fig10": experiments.AlgHB, "fig11": experiments.AlgHR}[name]
			r, err := experiments.Speedup(alg, speedupLogN, parts, opt)
			return emit(name, r, err)
		case "fig12", "fig13", "fig14":
			alg := map[string]experiments.Alg{"fig12": experiments.AlgSB, "fig13": experiments.AlgHB, "fig14": experiments.AlgHR}[name]
			r, err := experiments.Scaleup(alg, scales, *per, opt)
			return emit(name, r, err)
		case "fig15":
			r, err := experiments.SampleSizes(experiments.AlgHB, parts, *per, opt)
			return emit(name, r, err)
		case "fig16":
			r, err := experiments.SampleSizes(experiments.AlgHR, parts, *per, opt)
			return emit(name, r, err)
		case "concise":
			r, err := experiments.ConciseNonUniformity(*trials, opt)
			return emit(name, r, err)
		case "calibration":
			for _, alg := range []experiments.Alg{experiments.AlgSB, experiments.AlgHB, experiments.AlgHR} {
				r, err := experiments.EstimatorCalibration(alg, *trials, opt)
				if err := emit(fmt.Sprintf("%s-%s", name, alg), r, err); err != nil {
					return err
				}
			}
			return nil
		case "cluster":
			r, err := experiments.Cluster(experiments.ClusterConfig{
				Shards: parseInts(*clShards), Clients: *clClients, Dur: *clDur,
			}, opt)
			return emit(name, r, err)
		case "chaos":
			r, err := experiments.Chaos(experiments.ChaosConfig{
				SwdPath: *swdPath, Cycles: *ccycles, Workers: *cworkers,
				Batch: *cbatch, Uptime: *cuptime,
			}, opt)
			return emit(name, r, err)
		case "uniformity":
			for _, alg := range []experiments.Alg{experiments.AlgSB, experiments.AlgHB, experiments.AlgHR} {
				r, err := experiments.UniformityAudit(alg, *trials, opt)
				if err := emit(fmt.Sprintf("%s-%s", name, alg), r, err); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
			"fig15", "fig16", "concise", "uniformity", "calibration"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(jsonDocument{Results: collected}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: marshal results: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "swbench: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
}

// parseInts parses a comma-separated integer list; empty input gives nil.
func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: bad integer %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
