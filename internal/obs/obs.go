// Package obs is the warehouse's observability layer: atomic counters,
// gauges, bounded latency histograms and request spans, with no dependencies
// beyond the standard library.
//
// The design rule is nil-safety everywhere: every method on a nil *Registry,
// *Counter, *Gauge or *Histogram is a no-op, so instrumented code never
// branches on "is observability enabled" — it simply holds (possibly nil)
// handles and calls them. When enabled, a hot-path update costs one atomic
// add; when disabled (nil handle) it costs one predictable branch. See
// DESIGN.md §7 for the measured overhead.
//
// Typical wiring:
//
//	reg := obs.NewRegistry()
//	sampler.Instrument(reg)
//	...
//	fmt.Print(reg.Snapshot())             // or reg.String()
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of Histogram: bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0), which
// covers the full int64 range in 65 buckets at a fixed 520-byte footprint.
const histBuckets = 65

// Histogram is a bounded log-scale histogram of non-negative int64
// observations (typically latencies in nanoseconds or sizes in bytes).
//
// Bucketing is power-of-two: bucket 0 counts observations v <= 0 and bucket
// i (1 <= i <= 64) counts 2^(i-1) <= v < 2^i, so bucket i's inclusive upper
// bound is 2^i - 1 and the 65 fixed buckets cover the whole int64 range in a
// 520-byte footprint. Quantile estimates are therefore exact to within a
// factor of two — plenty for "where does merge time go" questions — while
// updates stay lock-free and allocation-free. Buckets exposes the raw
// bound/count pairs for exporters (Prometheus exposition renders them as
// cumulative le buckets); summary quantiles report bucket lower bounds. A
// nil *Histogram is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Timer measures one interval into a histogram; obtain it from Start.
type Timer struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing an interval. On a nil histogram it returns a zero
// Timer whose Stop is free — no clock is read.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, t0: time.Now()}
}

// Stop records the elapsed interval and returns it in nanoseconds (0 when
// the timer came from a nil histogram).
func (t Timer) Stop() int64 {
	if t.h == nil {
		return 0
	}
	ns := time.Since(t.t0).Nanoseconds()
	t.h.Observe(ns)
	return ns
}

// HistogramBucket is one histogram bucket: Count observations were <= Bound
// and greater than the previous bucket's Bound (counts are per-bucket, not
// cumulative). The top bucket's Bound is math.MaxInt64.
type HistogramBucket struct {
	Bound int64 `json:"bound"`
	Count int64 `json:"count"`
}

// Buckets returns the histogram's bound/count pairs, trimmed to the highest
// non-empty bucket (nil for a nil or empty histogram). Bounds are inclusive
// upper bounds: 0, 1, 3, 7, ..., 2^i-1, ..., MaxInt64 — the power-of-two
// scheme documented on Histogram. Under concurrent updates the counts are a
// per-bucket-atomic snapshot; cumulative sums over the returned slice are
// monotone by construction.
func (h *Histogram) Buckets() []HistogramBucket {
	if h == nil {
		return nil
	}
	var counts [histBuckets]int64
	top := -1
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	out := make([]HistogramBucket, top+1)
	for i := 0; i <= top; i++ {
		bound := int64(math.MaxInt64)
		if i < 64 {
			bound = int64(1)<<uint(i) - 1
		}
		out[i] = HistogramBucket{Bound: bound, Count: counts[i]}
	}
	return out
}

// summary snapshots a histogram's distribution.
func (h *Histogram) summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	// Quantiles from the bucket counts loaded above (total may lag Count
	// slightly under concurrent updates; quantiles use their own total).
	quantile := func(q float64) int64 {
		rank := int64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var cum int64
		for i, c := range counts {
			cum += c
			if cum > rank {
				if i == 0 {
					return 0
				}
				return int64(1) << uint(i-1) // bucket lower bound
			}
		}
		return s.Max
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	return s
}

// HistogramSummary is the exported snapshot of one histogram. Quantiles are
// bucket lower bounds (exact to within 2x).
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Registry holds a process's (or component's) metrics.
// Metric handles are registered lazily by name; handle lookup takes a lock,
// so hot paths should look up once and cache the handle. All methods are
// safe for concurrent use, and every method on a nil *Registry is a no-op
// (returning nil handles, which are themselves no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Nil registry →
// nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. By
// convention names ending in "_ns" hold nanosecond latencies and names
// ending in "_bytes" hold sizes; Snapshot renders them accordingly.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MemorySink is an empty stand-in for the removed structured-event sink:
// bench/stack.go still installs one. It and SetSink go when ROADMAP item
// 2(c) wires that stack as swd runs it.
type MemorySink struct{}

// NewMemorySink returns an empty MemorySink; capacity is ignored. Kept for
// bench/stack.go until ROADMAP item 2(c).
func NewMemorySink(capacity int) *MemorySink { return &MemorySink{} }

// SetSink does nothing. Kept for bench/stack.go until ROADMAP item 2(c).
func (r *Registry) SetSink(*MemorySink) {}

// Snapshot is a point-in-time copy of every metric in a registry. It
// marshals to JSON (expvar-compatible: a single JSON object) and renders a
// human-readable report via String.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every registered metric. It is safe
// to call concurrently with updates; counters are read atomically.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var s Snapshot
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSummary, len(hists))
		for k, h := range hists {
			s.Histograms[k] = h.summary()
		}
	}
	return s
}

// JSON returns the snapshot as a JSON object (expvar-style).
func (s Snapshot) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Snapshot contains only maps of scalars; marshal cannot fail.
		panic(fmt.Sprintf("obs: snapshot marshal: %v", err))
	}
	return b
}

// String renders the snapshot as an aligned, sorted, human-readable report.
func (s Snapshot) String() string {
	var b strings.Builder
	section := func(title string) { fmt.Fprintf(&b, "-- %s --\n", title) }
	if len(s.Counters) > 0 {
		section("counters")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "%-44s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		section("gauges")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "%-44s %d\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		section("histograms")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "%-44s n=%d mean=%s p50=%s p99=%s max=%s\n",
				k, h.Count, renderValue(k, h.Mean), renderValue(k, float64(h.P50)),
				renderValue(k, float64(h.P99)), renderValue(k, float64(h.Max)))
		}
	}
	return b.String()
}

// String renders the registry's current snapshot (empty report when nil).
func (r *Registry) String() string { return r.Snapshot().String() }

// renderValue pretty-prints a histogram statistic using the name's unit
// convention: *_ns as durations, *_bytes with byte units, else plain.
func renderValue(name string, v float64) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return time.Duration(v).Round(time.Microsecond / 10).String()
	case strings.HasSuffix(name, "_bytes"):
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMiB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", v/(1<<10))
		}
		return fmt.Sprintf("%.0fB", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
