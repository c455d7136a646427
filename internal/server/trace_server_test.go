package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/warehouse"
)

// findChild returns the first direct child span named name, or nil.
func findChild(s *obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	for i := range s.Children {
		if s.Children[i].Name == name {
			return &s.Children[i]
		}
	}
	return nil
}

func TestExplainSpanTree(t *testing.T) {
	wh := newTestWarehouse(t, 4, 1000)
	wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: 1 << 20})
	s := New(wh, Config{Registry: obs.NewRegistry()})
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg&explain=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if hdr := w.Header().Get(TraceHeader); hdr == "" {
		t.Fatal("no trace id header on response")
	}
	resp := decode[EstimateResponse](t, w)
	if resp.TraceID == "" || resp.Trace == nil {
		t.Fatalf("explain did not populate trace: %+v", resp)
	}
	if resp.TraceID != w.Header().Get(TraceHeader) {
		t.Fatalf("body trace id %q != header %q", resp.TraceID, w.Header().Get(TraceHeader))
	}
	root := resp.Trace
	if root.Name != "estimate" {
		t.Fatalf("root span %q, want route name", root.Name)
	}
	if !root.Open {
		t.Fatal("explain snapshot is taken mid-request; root must be open")
	}

	// The stage spans are direct children of the root.
	for _, name := range []string{"admission_wait", "load", "merge", "estimate"} {
		if findChild(root, name) == nil {
			t.Fatalf("missing stage span %q in %+v", name, root)
		}
	}
	load := findChild(root, "load")
	if load.Values["partitions"] != 4 {
		t.Fatalf("load span partitions = %v, want 4", load.Values)
	}
	if len(load.Children) != 4 {
		t.Fatalf("load has %d load_partition children, want 4", len(load.Children))
	}
	for _, c := range load.Children {
		if c.Name != "load_partition" {
			t.Fatalf("unexpected load child %q", c.Name)
		}
		if c.Labels["cache"] == "" || c.Labels["partition"] == "" {
			t.Fatalf("load_partition missing labels: %+v", c)
		}
		if c.Labels["cache"] == "miss" && c.Values["bytes"] <= 0 {
			t.Fatalf("load_partition miss with no bytes: %+v", c)
		}
	}
	merge := findChild(root, "merge")
	sel, join := findChild(merge, "merge_select"), findChild(merge, "merge_join")
	if len(merge.Children) != 2 || sel == nil || join == nil {
		t.Fatalf("merge children = %+v, want merge_select and merge_join", merge.Children)
	}
	if sel.Values["inputs"] != 4 || sel.Values["k"] < 1 || sel.Values["workers"] < 1 {
		t.Fatalf("merge_select values %v", sel.Values)
	}
	if join.Values["distinct"] < 1 {
		t.Fatalf("merge_join without distinct: %+v", join)
	}
	est := findChild(root, "estimate")
	if est.Labels["q"] != "avg" {
		t.Fatalf("estimate span labels %v", est.Labels)
	}

	// Acceptance shape: the stage spans partition the handler's elapsed
	// time. Their sum can never exceed it (they are disjoint sub-intervals)
	// and must account for the bulk of it.
	stages := load.DurationNS + merge.DurationNS + est.DurationNS
	if resp.ElapsedNS <= 0 {
		t.Fatalf("elapsed_ns = %d", resp.ElapsedNS)
	}
	if stages > resp.ElapsedNS*11/10 {
		t.Fatalf("stage sum %d exceeds elapsed %d", stages, resp.ElapsedNS)
	}

	// A second query hits the cache; its partitions must say so.
	w = do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg&explain=1", "")
	resp = decode[EstimateResponse](t, w)
	load = findChild(resp.Trace, "load")
	for _, c := range load.Children {
		if c.Labels["cache"] != "hit" {
			t.Fatalf("second query load_partition not a cache hit: %+v", c)
		}
		if c.Values["cache_age_ns"] < 0 {
			t.Fatalf("cache hit with negative age: %+v", c)
		}
	}
}

func TestSampleExplain(t *testing.T) {
	s := newTestServer(t, Config{Registry: obs.NewRegistry()})
	w := do(t, s, http.MethodGet, "/v1/datasets/d/sample?limit=1&explain=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[SampleResponse](t, w)
	if resp.TraceID == "" || resp.Trace == nil {
		t.Fatal("sample explain did not populate trace")
	}
	if findChild(resp.Trace, "load") == nil || findChild(resp.Trace, "merge") == nil {
		t.Fatalf("sample trace missing stages: %+v", resp.Trace)
	}
	// Without explain the fields stay absent.
	w = do(t, s, http.MethodGet, "/v1/datasets/d/sample?limit=1", "")
	resp = decode[SampleResponse](t, w)
	if resp.TraceID != "" || resp.Trace != nil {
		t.Fatal("trace leaked into non-explain response")
	}
	// A bad explain value is a 400.
	w = do(t, s, http.MethodGet, "/v1/datasets/d/sample?explain=maybe", "")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad explain: status %d", w.Code)
	}
}

func TestTraceIDPropagation(t *testing.T) {
	s := newTestServer(t, Config{Registry: obs.NewRegistry()})

	// A client-supplied header is honored and echoed.
	r := httptest.NewRequest(http.MethodGet, "/v1/datasets/d/estimate?q=avg&explain=1", nil)
	r.Header.Set(TraceHeader, "trace-abc-123")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if got := w.Header().Get(TraceHeader); got != "trace-abc-123" {
		t.Fatalf("echoed trace id %q", got)
	}
	if resp := decode[EstimateResponse](t, w); resp.TraceID != "trace-abc-123" {
		t.Fatalf("explain trace id %q", resp.TraceID)
	}

	// An invalid header is replaced with a fresh ID, never echoed verbatim.
	r = httptest.NewRequest(http.MethodGet, "/v1/datasets/d/estimate?q=avg", nil)
	r.Header.Set(TraceHeader, "bad id with spaces\n")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if got := w.Header().Get(TraceHeader); got == "" || strings.Contains(got, " ") {
		t.Fatalf("invalid trace id not replaced: %q", got)
	}

	// server.Client forwards the trace ID from a traced context — the hop
	// a scatter-gather tier would make.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := obs.StartTrace("", "caller")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	resp, err := NewClient(ts.URL, nil).Estimate(ctx, "d", "avg", QueryOpts{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != tr.ID() {
		t.Fatalf("client hop trace id %q, want caller's %q", resp.TraceID, tr.ID())
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	const requests = 32
	s := newTestServer(t, Config{
		Registry:         reg,
		SlowLogThreshold: time.Nanosecond, // every request is "slow"
	})
	// A 4-entry ring instead of slowLogSize, so 32 requests evict; and admit
	// everything: the point is ring behavior under concurrency, not shedding.
	s.slow.buf = make([]SlowQuery, 0, 4)
	*s.query = *testLimiter(requests, requests, queueWait)

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg", "")
			if w.Code != http.StatusOK {
				t.Errorf("status %d: %s", w.Code, w.Body.String())
			}
		}()
	}
	wg.Wait()

	w := do(t, s, http.MethodGet, "/debug/slowlog", "")
	if w.Code != http.StatusOK {
		t.Fatalf("slowlog status %d", w.Code)
	}
	resp := decode[SlowLogResponse](t, w)
	if !resp.Enabled || resp.Size != 4 {
		t.Fatalf("slowlog config: %+v", resp)
	}
	if len(resp.Entries) != 4 {
		t.Fatalf("retained %d entries, want 4", len(resp.Entries))
	}
	if resp.Total != requests {
		t.Fatalf("total %d, want %d", resp.Total, requests)
	}
	for _, e := range resp.Entries {
		if e.TraceID == "" || e.Route != "estimate" || e.DurationNS <= 0 {
			t.Fatalf("bad entry %+v", e)
		}
		if e.Trace.Name != "estimate" {
			t.Fatalf("entry trace root %q", e.Trace.Name)
		}
	}
	// Newest first.
	for i := 1; i < len(resp.Entries); i++ {
		if resp.Entries[i].Time.After(resp.Entries[i-1].Time) {
			t.Fatalf("entries not newest-first at %d", i)
		}
	}
	if got := reg.Counter("slowlog.entries").Value(); got != resp.Total {
		t.Fatalf("slowlog.entries = %d, want %d", got, resp.Total)
	}
	if got := reg.Counter("slowlog.evicted").Value(); got != resp.Total-4 {
		t.Fatalf("slowlog.evicted = %d, want %d", got, resp.Total-4)
	}
}

func TestSlowLogDisabled(t *testing.T) {
	s := newTestServer(t, Config{Registry: obs.NewRegistry(), SlowLogThreshold: -1})
	_ = do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg", "")
	resp := decode[SlowLogResponse](t, do(t, s, http.MethodGet, "/debug/slowlog", ""))
	if resp.Enabled || len(resp.Entries) != 0 {
		t.Fatalf("disabled slowlog returned %+v", resp)
	}
}

func TestPrometheusEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Registry: obs.NewRegistry()})
	_ = do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg", "")
	w := do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		"# TYPE server_requests counter",
		"# TYPE server_inflight gauge",
		"# TYPE server_latency_ns histogram",
		"server_latency_ns_bucket{le=\"+Inf\"}",
		"server_latency_ns_count",
		"server_trace_requests 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// An uninstrumented server 404s both metrics forms.
	s = newTestServer(t, Config{})
	if w := do(t, s, http.MethodGet, "/metrics", ""); w.Code != http.StatusNotFound {
		t.Fatalf("uninstrumented /metrics status %d", w.Code)
	}
}
