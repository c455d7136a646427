package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every operation on nil registry/handles must be a no-op,
// never a panic — this is the contract hot paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(-1)
	r.Histogram("h").Observe(10)
	r.Histogram("h").Start().Stop()
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if out := r.String(); out != "" {
		t.Errorf("nil registry String = %q, want empty", out)
	}

	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Start().Stop() != 0 {
		t.Error("nil histogram timer measured something")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("items")
	c.Add(40)
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("items") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := r.Snapshot().Histograms["lat_ns"]
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 1000*1001/2 {
		t.Errorf("sum = %d, want %d", s.Sum, 1000*1001/2)
	}
	if s.Max != 1000 {
		t.Errorf("max = %d, want 1000", s.Max)
	}
	// True p50 is 500; the bucketed estimate must land within a factor of 2.
	if s.P50 < 250 || s.P50 > 1000 {
		t.Errorf("p50 = %d, want within [250, 1000]", s.P50)
	}
	if s.P99 < s.P50 || s.P99 > s.Max {
		t.Errorf("p99 = %d outside [p50=%d, max=%d]", s.P99, s.P50, s.Max)
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	h2 := r.Histogram("clamped")
	h2.Observe(-5)
	if got := r.Snapshot().Histograms["clamped"]; got.Count != 1 || got.Sum != 0 {
		t.Errorf("negative observation: %+v", got)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_ns")
	tm := h.Start()
	time.Sleep(time.Millisecond)
	ns := tm.Stop()
	if ns < int64(time.Millisecond)/2 {
		t.Errorf("timer measured %dns, expected ≳0.5ms", ns)
	}
	if s := r.Snapshot().Histograms["op_ns"]; s.Count != 1 {
		t.Errorf("timer did not record: %+v", s)
	}
}

func TestSnapshotJSONAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.items").Add(7)
	r.Gauge("warehouse.ds.partitions").Set(3)
	r.Histogram("merge_ns").Observe(1500)
	s := r.Snapshot()

	var back Snapshot
	if err := json.Unmarshal(s.JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["core.items"] != 7 || back.Gauges["warehouse.ds.partitions"] != 3 {
		t.Errorf("round-tripped snapshot lost data: %+v", back)
	}
	if back.Histograms["merge_ns"].Count != 1 {
		t.Errorf("histogram lost in JSON: %+v", back.Histograms)
	}

	out := s.String()
	for _, want := range []string{"core.items", "warehouse.ds.partitions", "merge_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines —
// registrations, updates and snapshots — and is meaningful under
// -race (the Makefile's check target runs it so).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h_ns").Observe(int64(i))
				if i%100 == 0 {
					_ = r.Counter("late-registered")
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			_ = s.String()
			_ = s.JSON()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["h_ns"].Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
