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
//	chaos       SIGKILL crash-recovery drill against a built swd
//	all         the figures, concise, uniformity and calibration
//
// The served read and write paths are timed by the bench/ harness
// (BENCHMARK.json), not here; the cluster's failover is checked by the
// server package's tests and make chaos-cluster.
//
// The defaults run a laptop-scale configuration; pass -full for the paper's
// original sizes (N = 2^26 for speedup, scale factors to 512, 3 runs),
// which take considerably longer.
//
// Results print as aligned text tables by default; -json FILE additionally
// writes every report as one machine-readable JSON document ("-" selects
// stdout). swbench -h lists the flags; README.md shows each of them.
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

// config is swbench's command line.
type config struct {
	exp, parts, scales, swd, json   string
	full                            bool
	logN, runs, parallelism, trials int
	ccycles, cworkers, cbatch       int
	per, nf                         int64
	p                               float64
	seed                            uint64
	cuptime                         time.Duration
}

// defineFlags declares swbench's flags on fs; main_test.go holds this set
// and README to each other.
func defineFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.exp, "exp", "all", "experiment: fig5, fig9..fig16, concise, uniformity, calibration, chaos, all")
	fs.BoolVar(&c.full, "full", false, "use the paper's full-scale parameters (slow)")
	fs.IntVar(&c.logN, "logn", 0, "speedup population size exponent (default 22, paper 26)")
	fs.StringVar(&c.parts, "parts", "", "comma-separated partition counts")
	fs.StringVar(&c.scales, "scales", "", "comma-separated scale factors")
	fs.Int64Var(&c.per, "per", 32*1024, "elements per partition (scaleup, sample sizes)")
	fs.IntVar(&c.runs, "runs", 0, "repetitions per point (default 1, paper 3)")
	fs.Int64Var(&c.nf, "nf", 8192, "sample-size bound nF")
	fs.Float64Var(&c.p, "p", 0.001, "HB exceedance probability")
	fs.Uint64Var(&c.seed, "seed", 1, "base RNG seed")
	fs.IntVar(&c.parallelism, "parallelism", 0, "sampler goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&c.trials, "trials", 0, "trials for concise/uniformity experiments")
	fs.StringVar(&c.swd, "swd", "", "chaos experiment: path to a built swd binary")
	fs.IntVar(&c.ccycles, "ccycles", 20, "chaos experiment: SIGKILL/restart cycles")
	fs.IntVar(&c.cworkers, "cworkers", 4, "chaos experiment: concurrent ingest workers")
	fs.IntVar(&c.cbatch, "cbatch", 2000, "chaos experiment: values per ingest batch")
	fs.DurationVar(&c.cuptime, "cuptime", 150*time.Millisecond, "chaos experiment: daemon uptime between kills")
	fs.StringVar(&c.json, "json", "", "also write results as JSON to this file (\"-\" = stdout)")
	return c
}

func main() {
	c := defineFlags(flag.CommandLine)
	flag.Parse()

	opt := experiments.Options{
		Seed:        c.seed,
		Runs:        c.runs,
		Parallelism: c.parallelism,
		NF:          c.nf,
		P:           c.p,
	}
	if opt.Runs == 0 {
		opt.Runs = 1
		if c.full {
			opt.Runs = 3
		}
	}
	speedupLogN := c.logN
	if speedupLogN == 0 {
		speedupLogN = 22
		if c.full {
			speedupLogN = 26
		}
	}
	parts := parseInts(c.parts)
	scales := parseInts(c.scales)
	if len(parts) == 0 && !c.full {
		parts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	if len(scales) == 0 && !c.full {
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
			r, err := experiments.Scaleup(alg, scales, c.per, opt)
			return emit(name, r, err)
		case "fig15":
			r, err := experiments.SampleSizes(experiments.AlgHB, parts, c.per, opt)
			return emit(name, r, err)
		case "fig16":
			r, err := experiments.SampleSizes(experiments.AlgHR, parts, c.per, opt)
			return emit(name, r, err)
		case "concise":
			r, err := experiments.ConciseNonUniformity(c.trials, opt)
			return emit(name, r, err)
		case "calibration":
			for _, alg := range []experiments.Alg{experiments.AlgSB, experiments.AlgHB, experiments.AlgHR} {
				r, err := experiments.EstimatorCalibration(alg, c.trials, opt)
				if err := emit(fmt.Sprintf("%s-%s", name, alg), r, err); err != nil {
					return err
				}
			}
			return nil
		case "chaos":
			r, err := experiments.Chaos(experiments.ChaosConfig{
				SwdPath: c.swd, Cycles: c.ccycles, Workers: c.cworkers,
				Batch: c.cbatch, Uptime: c.cuptime,
			}, opt)
			return emit(name, r, err)
		case "uniformity":
			for _, alg := range []experiments.Alg{experiments.AlgSB, experiments.AlgHB, experiments.AlgHR} {
				r, err := experiments.UniformityAudit(alg, c.trials, opt)
				if err := emit(fmt.Sprintf("%s-%s", name, alg), r, err); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{c.exp}
	if c.exp == "all" {
		names = []string{"fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
			"fig15", "fig16", "concise", "uniformity", "calibration"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if c.json != "" {
		data, err := json.MarshalIndent(jsonDocument{Results: collected}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: marshal results: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if c.json == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(c.json, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "swbench: write %s: %v\n", c.json, err)
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
