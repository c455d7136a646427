package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"samplewh/internal/server"
)

// procStart is as near to process start as Go code gets; setup_s counts
// from it.
var procStart = time.Now()

// scratch tracks the warehouse directories this process made, so that every
// exit path — return, failed check, SIGTERM — can remove them.
var scratch struct {
	sync.Mutex
	dirs []string
}

func newScratchDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, "wh-")
	if err != nil {
		return "", err
	}
	scratch.Lock()
	scratch.dirs = append(scratch.dirs, dir)
	scratch.Unlock()
	return dir, nil
}

func removeScratch() {
	scratch.Lock()
	defer scratch.Unlock()
	for _, d := range scratch.dirs {
		os.RemoveAll(d)
	}
	scratch.dirs = nil
}

// bench is one set-up warehouse with its client.
type bench struct {
	sc       scale
	workload string
	st       *stack
	cl       *client
	pool     [][]byte  // roll bodies; nil on read-only workloads
	digest   hash.Hash // over the set-up requests; the op stream continues it
	rowsIn   int64     // rows ingested so far
	closed   bool
}

// setUp creates the data set and ingests sc.parts partitions through the
// same HTTP PUT path the write workloads time, then primes the cache with one
// merge per block of sc.subset partitions. It is identical for every
// workload but for the cache budget and the roll-body pool.
func setUp(outDir string, sc scale, workload string, seed uint64) (b *bench, err error) {
	dir, err := newScratchDir(outDir)
	if err != nil {
		return nil, err
	}
	st, err := openStack(dir, seed, sc.cacheBytes(workload))
	if err != nil {
		return nil, err
	}
	cl, err := dial(st.addr)
	if err != nil {
		st.close()
		return nil, err
	}
	b = &bench{sc: sc, workload: workload, st: st, cl: cl, digest: sha256.New()}
	defer func(made *bench) {
		if err != nil {
			made.close()
		}
	}(b)
	send := func(r request) error {
		r.render(st.addr)
		fmt.Fprintf(b.digest, "%s %s %s\n", r.method, r.path, r.key)
		if r.body != nil {
			sum := sha256.Sum256(r.body)
			b.digest.Write(sum[:])
		}
		status, body, err := b.cl.do(&r)
		if err != nil {
			return fmt.Errorf("set-up %s %s: %w", r.method, r.path, err)
		}
		if status != r.want {
			return fmt.Errorf("set-up %s %s: status %d: %s", r.method, r.path, status, body)
		}
		return nil
	}
	create, _ := json.Marshal(server.CreateDatasetRequest{Name: datasetName, Algorithm: "HR", NF: sc.nf})
	if err = send(request{method: "POST", path: "/v1/datasets", body: create, want: 201}); err != nil {
		return nil, err
	}
	for i := 0; i < sc.parts; i++ {
		err = send(request{method: "PUT", want: 201, body: renderBody(genValues(seed, sc, i)),
			path: "/v1/datasets/" + datasetName + "/partitions/" + partName(i),
			key:  fmt.Sprintf("bench-%d-%d", seed, i)})
		if err != nil {
			return nil, err
		}
		b.rowsIn += int64(sc.rows)
	}
	for lo := 0; lo < sc.parts; lo += sc.subset {
		if err = send(avgRequest(newest(lo+sc.subset, sc.subset))); err != nil {
			return nil, err
		}
	}
	if rolling(workload) {
		for i := 0; i < sc.pool; i++ {
			b.pool = append(b.pool, renderBody(genValues(seed, sc, sc.parts+i)))
		}
	}
	return b, nil
}

// close shuts the stack down and removes its directory.
func (b *bench) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.cl.close()
	err := b.st.close()
	os.RemoveAll(b.st.dir)
	return err
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp is the environment every results file carries. Loopback and fsync
// numbers are this sandbox's, not a device's.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	NF         int64   `json:"n_f"`
	Partitions int     `json:"partitions"`
	Rows       int     `json:"rows_per_partition"`
	Server     string  `json:"server_config"`
	Fsync      string  `json:"fsync_policy"`
	CacheBytes int64   `json:"cache_bytes"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	WindowS    int     `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Slices     int     `json:"slices"`
}

func newStamp(sc scale, workload string, seed uint64, seconds int) stamp {
	return stamp{
		Commit: envOr("BENCH_COMMIT", "unknown"), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		NF: sc.nf, Partitions: sc.parts, Rows: sc.rows,
		Server: "swd defaults: -wal -timeout 2s -query-limit GOMAXPROCS -merge-workers GOMAXPROCS -load-workers 4xGOMAXPROCS -events 256; in-process, 1 client, 1 connection",
		Fsync:  "always", CacheBytes: sc.cacheBytes(workload),
		Workload: workload, Seed: seed, WindowS: seconds, WarmupS: sc.warmup.Seconds(), Slices: sc.slices,
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// diagnostics go to the results file only: the pooled percentiles and the
// median over slices that the quiet quartile was chosen over, the sample
// counts, and what the correctness gate saw.
type diagnostics struct {
	Stamp         stamp              `json:"env"`
	OpsSHA256     string             `json:"ops_sha256"`
	Ops           int                `json:"ops"`
	Requests      int                `json:"requests"`
	Slices        sliceStats         `json:"per_slice"`
	PooledP50ms   float64            `json:"pooled_p50_ms"`
	PooledP90ms   float64            `json:"pooled_p90_ms"`
	PooledTail    float64            `json:"pooled_highest_supported_percentile"`
	SliceMedian   map[string]float64 `json:"median_over_slices"`
	Demoted       map[string]float64 `json:"demoted"`     // too unsteady on this host for BENCHMARK.json
	AsMeasured    map[string]float64 `json:"as_measured"` // before normalising to the host's nominal speed
	HostRefUS     float64            `json:"host_ref_us"`
	HostRefRuns   int                `json:"host_ref_runs"`
	GCs           uint32             `json:"gcs_in_window"`
	HostStealFrac float64            `json:"host_steal_frac"`
	SetupsS       []float64          `json:"setups_s"`
	IntervalRate  float64            `json:"interval_coverage"`
	Gate          gateReport         `json:"correctness_gate"`
	Result        resultLine         `json:"result"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// endToEnd is the --trace 0 run: set up, warm up, measure one window, audit,
// shut down, and only then check every answer against exact truth.
func endToEnd(outDir string, sc scale, workload string, seed uint64, seconds int) (resultLine, error) {
	// setup_s is the median of sc.setups full set-ups, each on a fresh
	// directory and a fresh server; the last one is the one measured on.
	sinceStart := time.Since(procStart).Seconds()
	var b *bench
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return resultLine{}, fmt.Errorf("set-up %d: shutdown: %w", i, err)
			}
		}
		t := time.Now()
		var err error
		if b, err = setUp(outDir, sc, workload, seed); err != nil {
			return resultLine{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer b.close()
	st := newStream(sc, workload, seed, b.st.addr, b.pool, b.digest)
	opsSHA := st.sha256()

	// Warm-up on the same op stream, one collection, then the window. Host
	// and runtime counters are read at the window's two ends only.
	drive(b.cl, st, sc.warmup, 1, false, refPlan{})
	refAlloc := refKernelAlloc()
	runtime.GC()
	before := readHost()
	w := drive(b.cl, st, time.Duration(seconds)*time.Second, sc.slices, true, refPlans[workload])
	after := readHost()
	if interrupted.Load() {
		return resultLine{}, errInterrupted
	}
	stored := dirBytes(b.st.dir, filepath.Join(b.st.dir, "wal"))
	walBytes := b.st.reg.Counter("wal.bytes").Value()
	oldest := 0
	if rolling(workload) {
		oldest = st.next
		b.rowsIn += int64(st.next) * int64(sc.rows)
	}

	// The audit battery: the same fixed subsets on every workload and seed.
	var audit []request
	var auditReplies []reply
	for i, parts := range auditSubsets(sc, oldest) {
		r := avgRequest(parts)
		r.render(b.st.addr)
		status, body, _ := b.cl.do(&r)
		audit = append(audit, r)
		auditReplies = append(auditReplies, reply{op: i, status: status, body: body})
	}

	var gate gateReport
	if rolling(workload) {
		gate.exactlyOnce(b.cl, sc, oldest)
	} else {
		gate.ExactlyOnce = true
	}
	shutdownErr := b.close()
	gate.ShutdownClean = shutdownErr == nil
	if shutdownErr != nil {
		gate.problem("shutdown: %v", shutdownErr)
	}

	// Nothing above parsed an answer. Now regenerate the data and check.
	tr := buildTruth(seed, sc, rolling(workload))
	bad := make(map[int]bool) // window ops not served
	for _, rep := range w.replies {
		if !gate.check(tr, &st.ops[w.first+rep.op].reqs[rep.req], rep) {
			bad[rep.op] = true
		}
	}
	for i, o := range w.ops {
		if !o.ok {
			bad[i] = true
		}
	}
	gate.halfWidthRel = nil
	failed := len(bad)
	for i, rep := range auditReplies {
		if !gate.check(tr, &audit[i], rep) {
			failed++
		}
	}

	ps := w.perSlice()
	// Set-up ran within seconds of the window, in the same host phase, so it
	// is normalised by the window's median reference time.
	hostFactor := 1.0
	if ref := w.refMedianUS(); ref > 0 {
		hostFactor = refNominalUS / ref
	}
	ops := float64(len(w.ops))
	liveRows := float64(sc.parts * sc.rows)
	m := map[string]metric{
		"op_p50_ms":            {quiet(ps.P50ms, false), "ms"},
		"ops_per_s":            {quiet(ps.OpsPerS, true), "1/s"},
		"cpu_ms_per_op":        {quiet(ps.CPUmsPerOp, false), "ms"},
		"alloc_kb_per_op":      {(float64(after.totalAlloc-before.totalAlloc) - refAlloc*float64(len(w.refs))) / 1024 / ops, "KiB"},
		"peak_rss_mb":          {after.hwmKB / 1024, "MiB"},
		"stored_bytes_per_row": {float64(stored)/liveRows + float64(walBytes)/float64(b.rowsIn), "B"},
		"ci_halfwidth_rel":     {median(gate.halfWidthRel), "frac"},
		"setup_s":              {(sinceStart + median(setups)) * hostFactor, "s"},
	}
	res := resultLine{Correct: gate.pass(), Attempted: len(w.ops) + len(audit), Failed: failed, Metrics: m}

	pooled := latenciesMS(w.ops)
	steal := 0.0
	if d := after.cpuTotal - before.cpuTotal; d > 0 {
		steal = (after.cpuSteal - before.cpuSteal) / d
	}
	diag := diagnostics{
		Stamp: newStamp(sc, workload, seed, seconds), OpsSHA256: opsSHA,
		Ops: len(w.ops), Requests: len(w.replies), Slices: ps,
		PooledP50ms: percentile(pooled, 50), PooledP90ms: percentile(pooled, 90),
		PooledTail: supportedPercentile(len(pooled)),
		SliceMedian: map[string]float64{"op_p50_ms": median(ps.P50ms), "op_p90_ms": median(ps.P90ms),
			"ops_per_s": median(ps.OpsPerS), "cpu_ms_per_op": median(ps.CPUmsPerOp)},
		Demoted: map[string]float64{"op_p90_ms": quiet(ps.P90ms, false)},
		AsMeasured: map[string]float64{"op_p50_ms": quiet(ps.RawP50ms, false), "op_p90_ms": quiet(ps.RawP90ms, false),
			"ops_per_s": quiet(ps.RawOpsPerS, true), "cpu_ms_per_op": quiet(ps.RawCPUmsPerOp, false),
			"setup_s": sinceStart + median(setups)},
		HostRefUS: w.refMedianUS(), HostRefRuns: len(w.refs),
		GCs: after.numGC - before.numGC, HostStealFrac: steal, SetupsS: setups,
		IntervalRate: gate.intervalRate(), Gate: gate, Result: res,
	}
	counts := map[string]int{"op_p50_ms": len(pooled), "ops_per_s": len(pooled),
		"cpu_ms_per_op": len(w.ops), "alloc_kb_per_op": len(w.ops), "peak_rss_mb": 1,
		"stored_bytes_per_row": 1, "ci_halfwidth_rel": len(gate.halfWidthRel), "setup_s": len(setups)}
	fmt.Printf("workload %s seed %d window %ds: %d ops in %d slices, ops_sha256 %s\n",
		workload, seed, seconds, len(w.ops), len(ps.P50ms), opsSHA)
	fmt.Printf("host reference %.1f us over %d runs (nominal %.0f): timings and setup_s are scaled by %.4f\n",
		w.refMedianUS(), len(w.refs), refNominalUS, hostFactor)
	printMetrics(m, counts)
	fmt.Printf("  %-34s %14.6g %-5s n=%d  (results file only: demoted from BENCHMARK.json)\n",
		"op_p90_ms", diag.Demoted["op_p90_ms"], "ms", len(pooled))
	fmt.Printf("correctness: %d answers checked, %d of %d intervals hold truth (%.3f), gate %v\n",
		gate.Answers, gate.IntervalsHolding, gate.Intervals, gate.intervalRate(), gate.pass())
	for _, p := range gate.Problems {
		fmt.Println("  problem:", p)
	}
	if err := writeJSON(filepath.Join(outDir, workload+".result.json"), diag); err != nil {
		return res, err
	}
	return res, nil
}

// refKernelAlloc measures the bytes one reference-kernel run allocates, so
// the interleaved runs can be taken out of alloc_kb_per_op.
func refKernelAlloc() float64 {
	const runs = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		refKernel()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// printMetrics prints every metric by name with its unit and sample count.
func printMetrics(m map[string]metric, counts map[string]int) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %14.6g %-5s n=%d\n", name, m[name].Value, m[name].Unit, counts[name])
	}
}
