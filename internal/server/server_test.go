package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// newTestWarehouse builds an in-memory warehouse with one HR data set "d"
// holding parts partitions of size valuesPer each (values are sequential, so
// estimates have known ground truth: partition i holds
// [i*valuesPer, (i+1)*valuesPer)).
func newTestWarehouse(t *testing.T, parts, valuesPer int) *warehouse.Warehouse[int64] {
	t.Helper()
	wh := warehouse.New[int64](storage.NewMemStore[int64](), 42)
	cfg := warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: core.ConfigForNF(512)}
	if err := wh.CreateDataset("d", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parts; i++ {
		smp, err := wh.NewSampler("d", 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := i * valuesPer; v < (i+1)*valuesPer; v++ {
			smp.Feed(int64(v))
		}
		fin, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.RollIn("d", part(i), fin); err != nil {
			t.Fatal(err)
		}
	}
	return wh
}

func part(i int) string { return "p" + string(rune('0'+i)) }

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(newTestWarehouse(t, 4, 1000), cfg)
}

// do issues one request against the server's handler directly.
func do(t *testing.T, s *Server, method, target string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return out
}

func TestLimiterShedAndQueue(t *testing.T) {
	l := newLimiter(1, 1, 50*time.Millisecond)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Second request queues; give it a moment to take the queue slot.
	got := make(chan error, 1)
	go func() { got <- l.acquire(ctx) }()
	deadline := time.Now().Add(time.Second)
	for l.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request finds slots busy and the queue full: shed immediately.
	if err := l.acquire(ctx); !errors.Is(err, errShed) {
		t.Fatalf("third acquire: got %v, want errShed", err)
	}

	// Releasing the slot admits the queued request.
	l.release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	l.release()
}

func TestLimiterQueueWaitExpires(t *testing.T) {
	l := newLimiter(1, 4, 10*time.Millisecond)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.release()
	// The slot is never released, so the queued request sheds at the wait
	// bound instead of hanging.
	if err := l.acquire(context.Background()); !errors.Is(err, errShed) {
		t.Fatalf("got %v, want errShed after queue wait", err)
	}
}

func TestLimiterContextCancelWhileQueued(t *testing.T) {
	l := newLimiter(1, 4, time.Minute)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := l.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRequestContextTimeouts(t *testing.T) {
	s := newTestServer(t, Config{DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second})
	cases := []struct {
		raw  string
		want time.Duration
		bad  bool
	}{
		{raw: "", want: 2 * time.Second},
		{raw: "100ms", want: 100 * time.Millisecond},
		{raw: "10m", want: 5 * time.Second}, // clamped to MaxTimeout
		{raw: "bogus", bad: true},
		{raw: "-1s", bad: true},
		{raw: "0s", bad: true},
	}
	for _, tc := range cases {
		target := "/v1/datasets"
		if tc.raw != "" {
			target += "?timeout=" + tc.raw
		}
		r := httptest.NewRequest(http.MethodGet, target, nil)
		ctx, cancel, err := s.requestContext(r)
		if tc.bad {
			if err == nil {
				cancel()
				t.Errorf("timeout=%q: want error", tc.raw)
			}
			continue
		}
		if err != nil {
			t.Errorf("timeout=%q: %v", tc.raw, err)
			continue
		}
		dl, ok := ctx.Deadline()
		cancel()
		if !ok {
			t.Errorf("timeout=%q: no deadline", tc.raw)
			continue
		}
		if got := time.Until(dl); got > tc.want || got < tc.want-time.Second {
			t.Errorf("timeout=%q: deadline in %v, want ~%v", tc.raw, got, tc.want)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	h := s.wrap(s.read, "boom", func(w http.ResponseWriter, r *http.Request) error {
		panic("kaboom")
	})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if got := reg.Counter("server.panics").Value(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}
	// The slot must have been released despite the panic.
	if got := s.read.inflight(); got != 0 {
		t.Fatalf("inflight %d after panic, want 0", got)
	}
}

func TestHealthAndDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz %d, want 200", w.Code)
	}
	h := decode[HealthResponse](t, w)
	if h.Status != "ok" || !h.Ready || h.Datasets != 1 {
		t.Fatalf("health %+v", h)
	}
	if w := do(t, s, http.MethodGet, "/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz %d, want 200", w.Code)
	}
	s.BeginDrain()
	// Liveness stays green during drain (the process is healthy); readiness
	// fails so traffic is routed away.
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("draining healthz %d, want 200", w.Code)
	}
	if h := decode[HealthResponse](t, do(t, s, http.MethodGet, "/healthz", "")); h.Status != "draining" || h.Ready {
		t.Fatalf("draining health %+v", h)
	}
	if w := do(t, s, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz %d, want 503", w.Code)
	}
}

func TestReadinessGate(t *testing.T) {
	s := newTestServer(t, Config{})
	s.SetReady(false)
	// Liveness and readiness probes answer while booting; serving routes 503.
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("booting healthz %d, want 200", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("booting readyz %d, want 503", w.Code)
	}
	w := do(t, s, http.MethodGet, "/v1/datasets", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("booting datasets %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("booting 503 without Retry-After")
	}
	s.SetReady(true)
	if w := do(t, s, http.MethodGet, "/v1/datasets", ""); w.Code != http.StatusOK {
		t.Fatalf("ready datasets %d, want 200", w.Code)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	s := New(warehouse.New[int64](storage.NewMemStore[int64](), 1), Config{})

	// Empty listing.
	if got := decode[[]DatasetInfo](t, do(t, s, http.MethodGet, "/v1/datasets", "")); len(got) != 0 {
		t.Fatalf("empty warehouse lists %d data sets", len(got))
	}

	// Create, then conflict on re-create.
	w := do(t, s, http.MethodPost, "/v1/datasets", `{"name":"orders","algorithm":"HR","nf":256}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body.String())
	}
	info := decode[DatasetInfo](t, w)
	if info.Name != "orders" || info.Algorithm != "HR" || info.NF != 256 {
		t.Fatalf("create info %+v", info)
	}
	if w := do(t, s, http.MethodPost, "/v1/datasets", `{"name":"orders"}`); w.Code != http.StatusConflict {
		t.Fatalf("re-create: %d, want 409", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/datasets", `{"name":"x","algorithm":"ZZ"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad algorithm: %d, want 400", w.Code)
	}

	// Ingest a partition over HTTP.
	var body strings.Builder
	for i := 0; i < 500; i++ {
		body.WriteString("7\n")
	}
	w = do(t, s, http.MethodPut, "/v1/datasets/orders/partitions/p0", body.String())
	if w.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	ing := decode[IngestResponse](t, w)
	if ing.Read != 500 || ing.Sample.ParentSize != 500 {
		t.Fatalf("ingest response %+v", ing)
	}

	// Introspect.
	w = do(t, s, http.MethodGet, "/v1/datasets/orders/partitions/p0", "")
	if w.Code != http.StatusOK {
		t.Fatalf("partition info: %d %s", w.Code, w.Body.String())
	}
	pi := decode[PartitionInfo](t, w)
	if pi.ParentSize != 500 {
		t.Fatalf("partition info %+v", pi)
	}

	// Roll out; a second roll-out reports 404.
	if w := do(t, s, http.MethodDelete, "/v1/datasets/orders/partitions/p0", ""); w.Code != http.StatusOK {
		t.Fatalf("rollout: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, s, http.MethodDelete, "/v1/datasets/orders/partitions/p0", ""); w.Code != http.StatusNotFound {
		t.Fatalf("second rollout: %d, want 404", w.Code)
	}

	// Error mapping on the read paths.
	if w := do(t, s, http.MethodGet, "/v1/datasets/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown data set: %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/v1/datasets/orders/partitions/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown partition: %d, want 404", w.Code)
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, http.MethodPut, "/v1/datasets/d/partitions/px", "12\nnope\n"); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage value: %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPut, "/v1/datasets/d/partitions/px", "\n\n"); w.Code != http.StatusBadRequest {
		t.Fatalf("empty body: %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPut, "/v1/datasets/nope/partitions/px", "1\n"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown data set: %d, want 404", w.Code)
	}
}

func TestSampleEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}) // 4 partitions × 1000 sequential values
	w := do(t, s, http.MethodGet, "/v1/datasets/d/sample", "")
	if w.Code != http.StatusOK {
		t.Fatalf("sample: %d %s", w.Code, w.Body.String())
	}
	resp := decode[SampleResponse](t, w)
	if resp.Sample.ParentSize != 4000 {
		t.Fatalf("parent size %d, want 4000", resp.Sample.ParentSize)
	}
	if resp.Coverage.Partial || len(resp.Coverage.Merged) != 4 {
		t.Fatalf("coverage %+v", resp.Coverage)
	}
	if len(resp.Values) == 0 {
		t.Fatal("no values returned")
	}
	for i := 1; i < len(resp.Values); i++ {
		if resp.Values[i-1].Value >= resp.Values[i].Value {
			t.Fatal("values not sorted")
		}
	}

	// Partition subset + limit truncation.
	w = do(t, s, http.MethodGet, "/v1/datasets/d/sample?parts=p0,p1&limit=3", "")
	resp = decode[SampleResponse](t, w)
	if resp.Sample.ParentSize != 2000 {
		t.Fatalf("subset parent size %d, want 2000", resp.Sample.ParentSize)
	}
	if len(resp.Values) != 3 || !resp.Truncated {
		t.Fatalf("limit: %d values, truncated=%v", len(resp.Values), resp.Truncated)
	}

	// Unknown partition under strict merge fails; partial degrades.
	if w := do(t, s, http.MethodGet, "/v1/datasets/d/sample?parts=p0,ghost&partial=0", ""); w.Code/100 != 4 {
		t.Fatalf("strict with missing partition: %d, want 4xx", w.Code)
	}
	w = do(t, s, http.MethodGet, "/v1/datasets/d/sample?parts=p0,ghost", "")
	if w.Code != http.StatusOK {
		t.Fatalf("partial with missing partition: %d %s", w.Code, w.Body.String())
	}
	resp = decode[SampleResponse](t, w)
	if !resp.Coverage.Partial || len(resp.Coverage.Skipped) != 1 || resp.Coverage.Skipped[0].ID != "ghost" {
		t.Fatalf("degraded coverage %+v", resp.Coverage)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}) // values 0..3999 uniform

	get := func(q string) EstimateResponse {
		t.Helper()
		w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q="+q, "")
		if w.Code != http.StatusOK {
			t.Fatalf("estimate %s: %d %s", q, w.Code, w.Body.String())
		}
		return decode[EstimateResponse](t, w)
	}

	// avg of 0..3999 is 1999.5; the CI must cover it.
	r := get("avg")
	if r.Estimate == nil || r.Estimate.Lo > 1999.5 || r.Estimate.Hi < 1999.5 {
		t.Fatalf("avg estimate %+v does not cover 1999.5", r.Estimate)
	}
	if r.Estimate.Lo > r.Estimate.Value || r.Estimate.Value > r.Estimate.Hi {
		t.Fatalf("avg interval %+v does not contain its own point estimate", r.Estimate)
	}
	if r.Confidence != 0.95 || r.ElapsedNS < 0 {
		t.Fatalf("response meta %+v", r)
	}

	// count:0..1999 counts exactly half the values.
	r = get("count:0..1999")
	if r.Estimate == nil || r.Estimate.Lo > 2000 || r.Estimate.Hi < 2000 {
		t.Fatalf("count estimate %+v does not cover 2000", r.Estimate)
	}

	// fraction of the same range is 0.5.
	r = get("fraction:0..1999")
	if r.Estimate == nil || r.Estimate.Lo > 0.5 || r.Estimate.Hi < 0.5 {
		t.Fatalf("fraction estimate %+v does not cover 0.5", r.Estimate)
	}

	// median of 0..3999 is near 2000 (sampling error bounded loosely).
	r = get("median")
	if r.Quantile == nil || *r.Quantile < 1000 || *r.Quantile > 3000 {
		t.Fatalf("median %+v", r.Quantile)
	}
	r = get("quantile:0.9")
	if r.Quantile == nil || *r.Quantile < 3000 {
		t.Fatalf("p90 %+v", r.Quantile)
	}

	// distinct: all 4000 values are unique.
	r = get("distinct")
	if r.Distinct == nil || r.Distinct.InSample <= 0 || r.Distinct.GEE <= float64(r.Distinct.InSample) {
		t.Fatalf("distinct %+v", r.Distinct)
	}

	// topk and groupby shapes.
	r = get("topk:5")
	if len(r.TopK) == 0 {
		t.Fatal("topk empty")
	}
	r = get("groupby:1000")
	if len(r.Groups) == 0 {
		t.Fatal("groupby empty")
	}

	// Confidence override flows through.
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg&confidence=0.99", "")
	if r := decode[EstimateResponse](t, w); r.Confidence != 0.99 {
		t.Fatalf("confidence %v, want 0.99", r.Confidence)
	}

	// Error mapping.
	for target, want := range map[string]int{
		"/v1/datasets/d/estimate":                     http.StatusBadRequest, // q missing
		"/v1/datasets/d/estimate?q=explode":           http.StatusBadRequest,
		"/v1/datasets/d/estimate?q=count:9..1":        http.StatusBadRequest, // lo > hi
		"/v1/datasets/d/estimate?q=quantile:bogus":    http.StatusBadRequest,
		"/v1/datasets/d/estimate?q=quantile:NaN":      http.StatusBadRequest,
		"/v1/datasets/d/estimate?q=avg&confidence=2":  http.StatusBadRequest, // unsupported level
		"/v1/datasets/d/estimate?q=avg&timeout=bogus": http.StatusBadRequest,
		"/v1/datasets/nope/estimate?q=avg":            http.StatusNotFound,
	} {
		if w := do(t, s, http.MethodGet, target, ""); w.Code != want {
			t.Errorf("%s: %d, want %d (%s)", target, w.Code, want, w.Body.String())
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	do(t, s, http.MethodGet, "/v1/datasets", "")
	w := do(t, s, http.MethodGet, "/metricsz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz: %d", w.Code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metricsz body: %v", err)
	}
	if reg.Counter("server.requests").Value() != 1 {
		t.Fatalf("server.requests %d, want 1", reg.Counter("server.requests").Value())
	}
	if reg.Counter("server.route.datasets.list.requests").Value() != 1 {
		t.Fatal("per-route counter missing")
	}
}

// TestWarehouseSentinelStatus pins the one error map: each warehouse sentinel
// answers its HTTP status on every route that can raise it.
func TestWarehouseSentinelStatus(t *testing.T) {
	store := storage.NewMemStore[int64]()
	wh := warehouse.New[int64](store, 42)
	cfg := warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: core.ConfigForNF(64)}
	for _, ds := range []string{"gone", "empty"} {
		if err := wh.CreateDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	s := New(wh, Config{})
	// "gone" holds one partition whose sample vanished from the store.
	if w := do(t, s, http.MethodPut, "/v1/datasets/gone/partitions/a", "1\n2\n3\n"); w.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	if err := store.Delete("gone/a"); err != nil {
		t.Fatal(err)
	}
	create := `{"name":"empty"}`
	cases := []struct {
		name, method, target, body string
		want                       int
	}{
		{"unknown data set: sample", http.MethodGet, "/v1/datasets/ghost/sample", "", http.StatusNotFound},
		{"unknown data set: estimate", http.MethodGet, "/v1/datasets/ghost/estimate?q=avg", "", http.StatusNotFound},
		{"unknown data set: range estimate", http.MethodGet, "/v1/datasets/ghost/estimate?q=count:0..9", "", http.StatusNotFound},
		{"unknown data set: bounded estimate", http.MethodGet, "/v1/datasets/ghost/estimate?q=count:0..9&maxerr=0.2", "", http.StatusNotFound},
		{"unknown data set: ingest", http.MethodPut, "/v1/datasets/ghost/partitions/a", "1\n", http.StatusNotFound},
		{"no partitions: sample", http.MethodGet, "/v1/datasets/empty/sample", "", http.StatusNotFound},
		{"no partitions: range estimate", http.MethodGet, "/v1/datasets/empty/estimate?q=count:0..9", "", http.StatusNotFound},
		{"no readable partitions: sample", http.MethodGet, "/v1/datasets/gone/sample", "", http.StatusNotFound},
		{"no readable partitions: range estimate", http.MethodGet, "/v1/datasets/gone/estimate?q=count:0..9&prune=0", "", http.StatusNotFound},
		{"no readable partitions: bounded sample", http.MethodGet, "/v1/datasets/gone/sample?maxtime=1s", "", http.StatusNotFound},
		{"duplicate partition: sample", http.MethodGet, "/v1/datasets/gone/sample?parts=a,a", "", http.StatusBadRequest},
		{"duplicate partition: range estimate", http.MethodGet, "/v1/datasets/gone/estimate?q=fraction:0..9&parts=a,a", "", http.StatusBadRequest},
		{"data set exists: create", http.MethodPost, "/v1/datasets", create, http.StatusConflict},
	}
	for _, c := range cases {
		if w := do(t, s, c.method, c.target, c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
	}
}
