// Command bench is the repository's benchmark: it serves the real warehouse
// stack inside its own process, drives it closed loop from one goroutine over
// one keep-alive connection, and prints every metric BENCHMARK.json names.
// See README.md in this directory.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace 0   end-to-end metrics
//	bench --workload <name> --seed <n> --seconds <s> --trace 1   per-layer metrics (layer replay)
//	bench -campaign-report <file.jsonl>                           verdict on a recorded campaign
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// outDir holds warehouse directories (removed on every exit path), results
// files and traces. It is relative: the driver runs the benchmark from the
// root of a checkout and everything stays inside it.
var outDir = filepath.Join("bench", "out")

func main() {
	workload := flag.String("workload", "", "one of merge-warm, range-cold, ingest-roll, roll-query")
	seed := flag.Uint64("seed", 1, "seeds the data, the op sequence and the server")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the layer replay")
	report := flag.String("campaign-report", "", "print the verdict on a campaign's recorded result lines and exit")
	flag.Parse()

	if *report != "" {
		os.Exit(campaignReport(*report, "BENCHMARK.json"))
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	// A signal must not leave a warehouse directory behind: it stops the
	// client, and the run unwinds through its own shutdown. The grace period
	// covers a server draining its last request.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	unwound := make(chan struct{})
	go func() {
		<-sig
		interrupted.Store(true)
		select {
		case <-unwound:
		case <-time.After(20 * time.Second):
		}
		removeScratch()
		os.Exit(130)
	}()

	code := run(*workload, *seed, *seconds, *trace)
	close(unwound)
	if interrupted.Load() {
		select {} // the signal goroutine exits the process
	}
	removeScratch()
	os.Exit(code)
}

// run executes one benchmark run and prints its result line last. A run that
// could not measure prints no result line; a run whose answers were wrong
// prints one with correct:false. Both exit non-zero.
func run(workload string, seed uint64, seconds, trace int) int {
	var res resultLine
	var err error
	if trace == 1 {
		res, err = traced(outDir, fullScale, workload, seed)
	} else {
		res, err = endToEnd(outDir, fullScale, workload, seed, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
