package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the campaign judges against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is the campaign's judgement of one metric on one workload: the
// driver's own check, made on two sets of runs of the same commit.
type verdict struct {
	Median   [2]float64
	Q1, Q3   [2]float64
	Spread   [2]float64 // (Q3 - Q1) / median, per set
	Shift    float64    // how much worse the second set's median is, as a share of the first's
	Steady   bool       // both spreads within a third of the bound: the builder's target
	Accepted bool       // both spreads and the shift within the bound: what the driver requires
}

// judge compares two sets of values of one metric. exempt lifts the spread
// tests, as the driver does for setup_s.
func judge(set1, set2 []float64, bound float64, higherIsBetter, exempt bool) verdict {
	var v verdict
	for i, set := range [][]float64{set1, set2} {
		vals := append([]float64(nil), set...)
		v.Q1[i], v.Median[i], v.Q3[i] = quartiles(vals)
		v.Spread[i] = (v.Q3[i] - v.Q1[i]) / math.Abs(v.Median[i])
	}
	v.Shift = (v.Median[1] - v.Median[0]) / math.Abs(v.Median[0])
	if higherIsBetter {
		v.Shift = -v.Shift
	}
	worst := max(v.Spread[0], v.Spread[1])
	v.Steady = exempt || worst <= bound/3
	v.Accepted = (exempt || worst <= bound) && v.Shift <= bound
	return v
}

// campaignReport reads the result lines a campaign recorded — one
// "set<TAB>workload<TAB>seed<TAB>result-json" per run — and prints, per
// workload and metric, each set's median and quartiles, its spread and the
// shift between the sets. A row is "ok" when both spreads are within a third of
// the metric's bound (the builder's target) and the shift within the bound;
// "unsteady" when a spread is over the third but within the bound, which the
// driver still accepts; "REFUSED" when a spread or the shift is over the bound.
// The exit code is 0 unless a row is REFUSED or a run was not correct.
func campaignReport(path, specPath string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer f.Close()
	// values[workload][metric][set] in run order.
	values := make(map[string]map[string][2][]float64)
	incorrect := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 4)
		if len(fields) != 4 {
			continue
		}
		set, err := strconv.Atoi(fields[0])
		var res resultLine
		if err != nil || set < 1 || set > 2 || json.Unmarshal([]byte(fields[3]), &res) != nil {
			fmt.Fprintf(os.Stderr, "bench: unreadable campaign line: %.80s\n", sc.Text())
			return 2
		}
		if !res.Correct || res.Failed > 0 {
			incorrect++
		}
		if values[fields[1]] == nil {
			values[fields[1]] = make(map[string][2][]float64)
		}
		for name, m := range res.Metrics {
			sets := values[fields[1]][name]
			sets[set-1] = append(sets[set-1], m.Value)
			values[fields[1]][name] = sets
		}
	}

	ok := incorrect == 0
	fmt.Printf("%-12s %-21s %11s %11s %7s %7s %8s %6s  %s\n",
		"workload", "metric", "median-1", "median-2", "spread1", "spread2", "shift", "bound", "verdict")
	worstTiming, unsteady := 0.0, 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sets := values[w.Name][m.Name]
			if len(sets[0]) < 2 || len(sets[1]) < 2 {
				fmt.Printf("%-12s %-21s missing runs (%d, %d)\n", w.Name, m.Name, len(sets[0]), len(sets[1]))
				ok = false
				continue
			}
			v := judge(sets[0], sets[1], m.Bound, m.Better == "higher", m.Name == "setup_s")
			word := "ok"
			switch {
			case !v.Accepted:
				word = "REFUSED"
				ok = false
			case !v.Steady:
				word = "unsteady"
				unsteady++
			}
			if m.Unit == "ms" || m.Unit == "1/s" {
				worstTiming = max(worstTiming, v.Spread[0], v.Spread[1])
			}
			fmt.Printf("%-12s %-21s %11.5g %11.5g %7.4f %7.4f %+8.4f %6.2f  %s\n",
				w.Name, m.Name, v.Median[0], v.Median[1], v.Spread[0], v.Spread[1], v.Shift, m.Bound, word)
		}
	}
	fmt.Printf("worst timing spread %.4f; rows over a third of their bound: %d; runs not correct: %d\n",
		worstTiming, unsteady, incorrect)
	if !ok {
		fmt.Println("campaign: FAIL")
		return 1
	}
	fmt.Println("campaign: PASS")
	return 0
}
