package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the three cut points of v by the rule of Python's
// statistics.quantiles(v, n=4) — the rule the driver applies to ten runs, so
// the campaign's spreads are the driver's. It needs two values; v is sorted
// in place.
func quartiles(v []float64) (q1, q2, q3 float64) {
	sort.Float64s(v)
	n := len(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quiet is the reported value of a per-slice metric: the quartile on its
// good side. On a shared host disturbance only ever slows the program, and
// arrives in phases of seconds to minutes, so the quiet quartile of the slice
// values estimates the undisturbed program; what the program itself does
// periodically (GC, fsync, eviction) is already inside every slice's value.
func quiet(slices []float64, higherIsBetter bool) float64 {
	v := append([]float64(nil), slices...)
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	q1, _, q3 := quartiles(v)
	if higherIsBetter {
		return q3
	}
	return q1
}

func median(v []float64) float64 {
	v = append([]float64(nil), v...)
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	_, m, _ := quartiles(v)
	return m
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// supportedPercentile is the highest percentile of the usual ladder that has
// at least ten of n samples beyond it — the tail a sample of n can report.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if float64(n)*(100-p) >= 1000-1e-9 {
			best = p
		}
	}
	return best
}

// opTime is one op's client-observed timing, relative to the window start.
type opTime struct {
	start, end time.Duration
	ok         bool
}

// reply keeps one response as bytes; nothing is parsed or checked until the
// window has closed.
type reply struct {
	op, req int
	status  int
	body    []byte
}

// mark is a reading taken between two ops, where a slice opens.
type mark struct {
	op  int // index of the slice's first op
	at  time.Duration
	cpu time.Duration // process user+sys CPU so far
}

// window is one driven stretch of the op stream.
type window struct {
	first   int // stream index of ops[0]
	ops     []opTime
	replies []reply
	marks   []mark    // one per slice plus the closing one
	refs    []refTime // reference-kernel runs interleaved with the ops
}

// refTime is one timed run of the reference kernel.
type refTime struct{ at, dur time.Duration }

// refPlan interleaves the reference kernel with a workload's ops: repeat
// runs after every every-th op, sized so the kernel takes about a twentieth
// of the window. The zero plan runs none.
type refPlan struct{ every, repeat int }

var refPlans = map[string]refPlan{
	"merge-warm": {1, 1}, "range-cold": {2, 1}, "ingest-roll": {2, 3}, "roll-query": {1, 3},
}

// refKernel is the frozen host-speed yardstick: allocate a map of 8 192 fixed
// keys, delete half by a xorshift draw, re-insert the survivors into a second
// map, drop both — allocator, hashing and cache misses, the merge's own
// character. It must not change: every timing is reported relative to it.
func refKernel() int {
	const n = 8192
	a := make(map[int64]int64)
	for i := int64(0); i < n; i++ {
		a[i*2654435761] = i
	}
	x := uint64(88172645463325252)
	for i := 0; i < n/2; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		delete(a, int64(x%n)*2654435761)
	}
	b := make(map[int64]int64)
	for k, v := range a {
		b[k] = v
	}
	return len(b)
}

// refNominalUS is the reference kernel's time on the host at its usual
// speed. Timings are reported as raw × refNominalUS / (the kernel's median in
// the same slice): the host this runs on changes speed by ±15 % in phases
// that outlast a run, the kernel and the ops slow down together (log-log
// slope 1.0, r² 0.94 on merge-warm), and nothing inside one run can tell a
// slow phase from a slow program without a yardstick. The constant only
// fixes the scale; changing it rescales every timing alike.
const refNominalUS = 950.0

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the stream closed loop for dur: one goroutine, one connection,
// one op in flight. Between ops it only notes where a slice opens and runs
// the reference kernel as ref plans; every response is kept for later.
// keep=false drops the replies (warm-up).
func drive(cl *client, st *stream, dur time.Duration, slices int, keep bool, ref refPlan) *window {
	w := &window{first: st.next, ops: make([]opTime, 0, 1<<14), marks: make([]mark, 0, slices+1)}
	if keep {
		w.replies = make([]reply, 0, 1<<14)
	}
	t0 := time.Now()
	for {
		now := time.Since(t0)
		if now >= dur || interrupted.Load() {
			w.marks = append(w.marks, mark{op: len(w.ops), at: now, cpu: cpuTime()})
			return w
		}
		for len(w.marks) <= int(now*time.Duration(slices)/dur) {
			w.marks = append(w.marks, mark{op: len(w.ops), at: now, cpu: cpuTime()})
		}
		o := st.take()
		t := opTime{start: time.Since(t0), ok: true}
		for i := range o.reqs {
			status, body, err := cl.do(&o.reqs[i])
			if err != nil || status != o.reqs[i].want {
				t.ok = false
			}
			if keep {
				w.replies = append(w.replies, reply{op: len(w.ops), req: i, status: status, body: body})
			}
		}
		t.end = time.Since(t0)
		w.ops = append(w.ops, t)
		if ref.every > 0 && len(w.ops)%ref.every == 0 {
			for i := 0; i < ref.repeat; i++ {
				a := time.Since(t0)
				refKernel()
				w.refs = append(w.refs, refTime{a, time.Since(t0) - a})
			}
		}
	}
}

// sliceStats are the per-slice values of the four timing metrics, as
// measured (Raw*) and normalised to the host's nominal speed, with the
// reference kernel's median in each slice.
type sliceStats struct {
	P50ms, P90ms, OpsPerS, CPUmsPerOp             []float64
	RawP50ms, RawP90ms, RawOpsPerS, RawCPUmsPerOp []float64
	RefUS                                         []float64
}

func latenciesMS(ops []opTime) []float64 {
	var ms []float64
	for _, o := range ops {
		if o.ok {
			ms = append(ms, float64(o.end-o.start)/1e6)
		}
	}
	sort.Float64s(ms)
	return ms
}

// refMedianUS is the median reference-kernel time over the whole window.
func (w *window) refMedianUS() float64 {
	us := make([]float64, len(w.refs))
	for i, r := range w.refs {
		us[i] = float64(r.dur) / 1e3
	}
	return median(us)
}

// perSlice computes each slice's values. The reference kernel's time is
// taken out of the slice's length and CPU before they are divided by ops. A
// slice in which no op completed (one long stall) contributes nothing; one
// with no kernel run is normalised by the window's median.
func (w *window) perSlice() sliceStats {
	var s sliceStats
	overall := w.refMedianUS()
	for k := 0; k+1 < len(w.marks); k++ {
		a, b := w.marks[k], w.marks[k+1]
		ms := latenciesMS(w.ops[a.op:b.op])
		if len(ms) == 0 {
			continue
		}
		var refTotal time.Duration
		var refs []float64
		for _, r := range w.refs {
			if r.at >= a.at && r.at < b.at {
				refTotal += r.dur
				refs = append(refs, float64(r.dur)/1e3)
			}
		}
		ref := overall
		if len(refs) > 0 {
			ref = median(refs)
		}
		f := 1.0 // no kernel ran at all: report as measured
		if ref > 0 {
			f = refNominalUS / ref
		}
		p50, p90 := percentile(ms, 50), percentile(ms, 90)
		rate := float64(len(ms)) / (b.at - a.at - refTotal).Seconds()
		cpu := float64(b.cpu-a.cpu-refTotal) / 1e6 / float64(b.op-a.op)
		s.RawP50ms, s.P50ms = append(s.RawP50ms, p50), append(s.P50ms, p50*f)
		s.RawP90ms, s.P90ms = append(s.RawP90ms, p90), append(s.P90ms, p90*f)
		s.RawOpsPerS, s.OpsPerS = append(s.RawOpsPerS, rate), append(s.OpsPerS, rate/f)
		s.RawCPUmsPerOp, s.CPUmsPerOp = append(s.RawCPUmsPerOp, cpu), append(s.CPUmsPerOp, cpu*f)
		s.RefUS = append(s.RefUS, ref)
	}
	return s
}

// hostReading is what the harness reads of the process and the host, at the
// window's two ends only — no ticker, no sampler thread.
type hostReading struct {
	totalAlloc uint64
	numGC      uint32
	hwmKB      float64
	cpuTotal   float64 // /proc/stat first line, all fields, jiffies
	cpuSteal   float64
}

func readHost() hostReading {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h := hostReading{totalAlloc: m.TotalAlloc, numGC: m.NumGC, hwmKB: procStatusKB("VmHWM")}
	h.cpuTotal, h.cpuSteal = procStat()
	return h
}

// procStatusKB reads one kB-valued field of /proc/self/status.
func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return v
		}
	}
	return 0
}

// procStat returns the host's total and stolen CPU jiffies.
func procStat() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// dirBytes sums the regular files under root, leaving out the directory skip.
func dirBytes(root, skip string) int64 {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		p := filepath.Join(root, e.Name())
		switch info, err := e.Info(); {
		case p == skip || err != nil:
		case e.IsDir():
			total += dirBytes(p, skip)
		default:
			total += info.Size()
		}
	}
	return total
}
