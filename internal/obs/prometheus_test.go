package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h *Histogram
	if h.Buckets() != nil {
		t.Fatal("nil histogram returned buckets")
	}
	h = &Histogram{}
	if h.Buckets() != nil {
		t.Fatal("empty histogram returned buckets")
	}
	h.Observe(0) // bucket 0 (<= 0)
	h.Observe(1) // bucket 1 (le 1)
	h.Observe(5) // bucket 3 (le 7)
	h.Observe(5)
	b := h.Buckets()
	want := []HistogramBucket{{0, 1}, {1, 1}, {3, 0}, {7, 2}}
	if len(b) != len(want) {
		t.Fatalf("buckets %+v, want %+v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b[i], want[i])
		}
	}
	// The top bucket's bound is MaxInt64.
	h.Observe(math.MaxInt64)
	b = h.Buckets()
	if last := b[len(b)-1]; last.Bound != math.MaxInt64 || last.Count != 1 {
		t.Fatalf("top bucket %+v", last)
	}
}

func TestWritePrometheus(t *testing.T) {
	var nilReg *Registry
	var sb strings.Builder
	if err := nilReg.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q (err %v)", sb.String(), err)
	}

	reg := NewRegistry()
	reg.Counter("server.requests").Add(7)
	reg.Gauge("server.inflight").Set(3)
	h := reg.Histogram("server.latency_ns")
	h.Observe(100) // le 127
	h.Observe(100)
	h.Observe(1000) // le 1023
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP server_requests samplewh counter server.requests\n",
		"# TYPE server_requests counter\n",
		"server_requests 7\n",
		"# TYPE server_inflight gauge\n",
		"server_inflight 3\n",
		"# TYPE server_latency_ns histogram\n",
		"server_latency_ns_bucket{le=\"127\"} 2\n",
		"server_latency_ns_bucket{le=\"1023\"} 3\n",
		"server_latency_ns_bucket{le=\"+Inf\"} 3\n",
		"server_latency_ns_sum 1200\n",
		"server_latency_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Bucket series must be cumulative and monotone non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "server_latency_ns_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		last = v
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.latency_ns":                "server_latency_ns",
		"server.route.estimate.latency_ns": "server_route_estimate_latency_ns",
		"warehouse.orders-2024.partitions": "warehouse_orders_2024_partitions",
		"9lives":                           "_9lives",
		"":                                 "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
