package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// The bounded-endpoint fixture: 4 partitions of 1000 sequential values each
// under nf 512 (see newTestWarehouse), so partition i covers
// [i*1000, (i+1)*1000) and a fraction:0..499 query has ground truth 0.125.

func TestEstimateMaxErrStopsEarly(t *testing.T) {
	s := newTestServer(t, Config{})
	// prune=0 keeps sketch pruning out of the way: on this fixture the
	// sidecars prove 3 of 4 partitions irrelevant up front, leaving the
	// planner's early-stop machinery — what this test exercises — no work.
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=fraction:0..499&maxerr=0.3&prune=0", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[EstimateResponse](t, w)
	p := resp.Plan
	if p == nil {
		t.Fatal("bounded estimate carries no plan")
	}
	if p.StopReason != "maxerr" {
		t.Fatalf("stop reason %q, want maxerr: %+v", p.StopReason, p)
	}
	if p.Partitions != 4 || p.Loaded >= 4 || p.Loaded+p.Pruned != p.Partitions {
		t.Fatalf("plan accounting %+v", p)
	}
	if p.AchievedHalfWidth <= 0 || p.AchievedHalfWidth > 0.3 {
		t.Fatalf("achieved half-width %v, want in (0, 0.3]", p.AchievedHalfWidth)
	}
	if p.MaxErr != 0.3 {
		t.Fatalf("plan echoes maxerr %v", p.MaxErr)
	}
	if resp.Estimate == nil {
		t.Fatal("bounded estimate has no estimate body")
	}
	// The reported half-width is the estimate's own interval, and the true
	// total fraction (0.125) lies inside it.
	if hw := (resp.Estimate.Hi - resp.Estimate.Lo) / 2; hw != p.AchievedHalfWidth {
		t.Fatalf("estimate half-width %v != plan's %v", hw, p.AchievedHalfWidth)
	}
	if resp.Estimate.Lo > 0.125 || resp.Estimate.Hi < 0.125 {
		t.Fatalf("interval %v..%v excludes the truth 0.125", resp.Estimate.Lo, resp.Estimate.Hi)
	}
	// Pruned partitions are reported but do not degrade the answer.
	if resp.Degraded || resp.Coverage.Partial {
		t.Fatalf("pruned answer flagged degraded: %+v", resp.Coverage)
	}
	if len(resp.Coverage.Pruned) != p.Pruned || len(resp.Coverage.Merged) != p.Loaded {
		t.Fatalf("coverage %+v does not match plan %+v", resp.Coverage, p)
	}
	if p.CoveredPopulation != resp.Sample.ParentSize || p.TotalPopulation != 4000 {
		t.Fatalf("population accounting %+v vs sample %+v", p, resp.Sample)
	}
}

func TestEstimateCountMaxErrScalesInterval(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=count:0..499&maxerr=0.3", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[EstimateResponse](t, w)
	if resp.Plan == nil || resp.Estimate == nil {
		t.Fatalf("bounded count response incomplete: %+v", resp)
	}
	// Count intervals live on the count scale; the plan's achieved width is
	// fraction-scale (count width over the total population).
	hw := (resp.Estimate.Hi - resp.Estimate.Lo) / 2 / float64(resp.Plan.TotalPopulation)
	if diff := hw - resp.Plan.AchievedHalfWidth; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("fraction-scale count half-width %v != plan's %v", hw, resp.Plan.AchievedHalfWidth)
	}
	if resp.Plan.AchievedHalfWidth > 0.3 {
		t.Fatalf("achieved %v over bound", resp.Plan.AchievedHalfWidth)
	}
	if resp.Estimate.Lo > 500 || resp.Estimate.Hi < 500 {
		t.Fatalf("count interval %v..%v excludes the truth 500", resp.Estimate.Lo, resp.Estimate.Hi)
	}
}

func TestEstimateMaxErrOnlyForRangeQueries(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, q := range []string{"avg", "sum", "quantile:0.5", "distinct", "topk:3"} {
		w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q="+q+"&maxerr=0.1", "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("maxerr on %q: status %d, want 400", q, w.Code)
		}
		if !strings.Contains(w.Body.String(), "maxerr applies only") {
			t.Fatalf("maxerr on %q: unhelpful error %s", q, w.Body.String())
		}
	}
	// maxtime has no such restriction.
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=avg&maxtime=10s", "")
	if w.Code != http.StatusOK {
		t.Fatalf("maxtime on avg: status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[EstimateResponse](t, w)
	if resp.Plan == nil || resp.Plan.StopReason != "exhausted" || resp.Plan.Loaded != 4 {
		t.Fatalf("loose maxtime plan %+v, want exhausted full merge", resp.Plan)
	}
	// No evaluator ran, so no interval is claimed.
	if resp.Plan.AchievedHalfWidth != -1 {
		t.Fatalf("maxtime-only achieved half-width %v, want -1", resp.Plan.AchievedHalfWidth)
	}
}

// badReadTargets are read requests every route refuses with 400; their query
// strings also seed FuzzParseReadQuery.
var badReadTargets = []string{
	"/v1/datasets/d/estimate?q=fraction:0..499&maxerr=0",
	"/v1/datasets/d/estimate?q=fraction:0..499&maxerr=1",
	"/v1/datasets/d/estimate?q=fraction:0..499&maxerr=1.5",
	"/v1/datasets/d/estimate?q=fraction:0..499&maxerr=lots",
	"/v1/datasets/d/estimate?q=avg&maxtime=-5ms",
	"/v1/datasets/d/estimate?q=avg&maxtime=soon",
	"/v1/datasets/d/sample?maxerr=nope",
	"/v1/datasets/d/sample?maxtime=0",
	// An unsupported confidence is refused on every read route, bounded or
	// not, and a NaN bound is no bound.
	"/v1/datasets/d/estimate?q=fraction:0..499&maxerr=0.3&confidence=0.8",
	"/v1/datasets/d/estimate?q=avg&maxtime=10s&confidence=0.8",
	"/v1/datasets/d/estimate?q=avg&confidence=0.8",
	"/v1/datasets/d/sample?maxerr=0.3&confidence=0.8",
	"/v1/datasets/d/sample?confidence=0.8",
	"/v1/datasets/d/estimate?q=fraction:0..499&maxerr=NaN",
}

func TestBoundsParamValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, target := range badReadTargets {
		if w := do(t, s, http.MethodGet, target, ""); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", target, w.Code, w.Body.String())
		}
	}
}

// FuzzParseReadQuery: whatever query string a read arrives with, a read
// parseReadQuery accepts has a supported confidence, a maxerr that is unset
// or in (0, 1), a maxtime that is unset or positive, and no empty partition
// id.
func FuzzParseReadQuery(f *testing.F) {
	for _, target := range badReadTargets {
		_, raw, _ := strings.Cut(target, "?")
		f.Add(raw)
	}
	f.Add("parts=p0,p1&partial=0&maxerr=0.2&maxtime=50ms&confidence=0.99&explain=1")
	f.Add("parts=p0,,p1")
	f.Add("confidence=0.90&maxerr=1e-3")
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/datasets/d/sample", RawQuery: raw}}
		r.SetPathValue("ds", "d")
		q, _, err := parseReadQuery(r)
		if err != nil {
			return
		}
		if _, zerr := estimate.ZCrit(q.confidence); zerr != nil {
			t.Fatalf("%q: accepted confidence %v", raw, q.confidence)
		}
		if e := q.bounds.MaxErr; e != 0 && !(e > 0 && e < 1) {
			t.Fatalf("%q: accepted maxerr %v", raw, e)
		}
		if q.bounds.MaxTime < 0 {
			t.Fatalf("%q: accepted maxtime %v", raw, q.bounds.MaxTime)
		}
		for _, id := range q.ids {
			if id == "" {
				t.Fatalf("%q: accepted an empty partition id in %q", raw, q.ids)
			}
		}
	})
}

func TestSampleMaxErrUsesProxyBound(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/datasets/d/sample?maxerr=0.3", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[SampleResponse](t, w)
	p := resp.Plan
	if p == nil || p.StopReason != "maxerr" || p.Loaded >= 4 {
		t.Fatalf("bounded sample plan %+v", p)
	}
	if p.AchievedHalfWidth <= 0 || p.AchievedHalfWidth > 0.3 {
		t.Fatalf("proxy half-width %v, want in (0, 0.3]", p.AchievedHalfWidth)
	}
	if resp.Sample.ParentSize != p.CoveredPopulation {
		t.Fatalf("sample covers %d, plan says %d", resp.Sample.ParentSize, p.CoveredPopulation)
	}
	if resp.Degraded {
		t.Fatal("pruned sample flagged degraded")
	}
}

func TestUnboundedResponsesCarryNoPlan(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=fraction:0..499", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp := decode[EstimateResponse](t, w); resp.Plan != nil {
		t.Fatalf("unbounded estimate grew a plan: %+v", resp.Plan)
	}
	w = do(t, s, http.MethodGet, "/v1/datasets/d/sample?limit=1", "")
	if resp := decode[SampleResponse](t, w); resp.Plan != nil {
		t.Fatalf("unbounded sample grew a plan: %+v", resp.Plan)
	}
}

func TestExplainShowsPlanSpan(t *testing.T) {
	s := newTestServer(t, Config{Registry: obs.NewRegistry()})
	w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=fraction:0..499&maxerr=0.3&prune=0&explain=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[EstimateResponse](t, w)
	if resp.Trace == nil {
		t.Fatal("explain did not populate trace")
	}
	planSpan := findChild(resp.Trace, "plan")
	if planSpan == nil {
		t.Fatalf("no plan span under %q: %+v", resp.Trace.Name, resp.Trace)
	}
	if planSpan.Labels["maxerr"] == "" || planSpan.Labels["stop"] != "maxerr" {
		t.Fatalf("plan span labels %v", planSpan.Labels)
	}
	if planSpan.Labels["achieved_half_width"] == "" {
		t.Fatalf("plan span missing achieved_half_width: %v", planSpan.Labels)
	}
	if planSpan.Values["partitions"] != 4 || planSpan.Values["loaded"] != int64(resp.Plan.Loaded) ||
		planSpan.Values["pruned"] != int64(resp.Plan.Pruned) {
		t.Fatalf("plan span values %v vs plan %+v", planSpan.Values, resp.Plan)
	}
	if findChild(planSpan, "load") == nil || findChild(planSpan, "merge") == nil {
		t.Fatalf("plan span has no load/merge children: %+v", planSpan)
	}
}

func TestPlanMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	wh := newTestWarehouse(t, 4, 1000)
	wh.Instrument(reg)
	s := New(wh, Config{Registry: reg})
	if w := do(t, s, http.MethodGet, "/v1/datasets/d/estimate?q=fraction:0..499&maxerr=0.3&prune=0", ""); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	snap := reg.Snapshot()
	if snap.Counters["plan.plans"] != 1 {
		t.Fatalf("plan.plans = %d, want 1", snap.Counters["plan.plans"])
	}
	if snap.Counters["plan.early_stops"] != 1 || snap.Counters["plan.partitions_pruned"] == 0 {
		t.Fatalf("early-stop counters %v", snap.Counters)
	}
	if snap.Gauges["warehouse.partition_stats_entries"] != 4 {
		t.Fatalf("stats registry gauge %v", snap.Gauges["warehouse.partition_stats_entries"])
	}
}

// TestClusterBoundedQuery drives ?maxerr= through the scatter-gather path:
// every shard prunes under the shared bound, the coordinator sums the
// per-shard plans, and the covered population is exactly the population of
// the partitions that were actually merged.
func TestClusterBoundedQuery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 1, writeQuorum: 1})
	tc.createDataset(ctx, 0, "d", 8192)

	const parts, per = 12, 100
	for i := 0; i < parts; i++ {
		if _, err := tc.clients[0].IngestValues(ctx, "d", fmt.Sprintf("p%02d", i), 0, seqValues(int64(i*per), per)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}

	est, err := tc.clients[0].Estimate(ctx, "d", "fraction:0..599", QueryOpts{MaxErr: 0.45})
	if err != nil {
		t.Fatalf("bounded cluster estimate: %v", err)
	}
	p := est.Plan
	if p == nil {
		t.Fatal("cluster bounded answer carries no plan")
	}
	if p.StopReason != "maxerr" {
		t.Fatalf("stop reason %q, want maxerr: %+v", p.StopReason, p)
	}
	if p.Partitions != parts || p.Loaded >= parts || p.Loaded+p.Pruned != parts {
		t.Fatalf("cluster plan accounting %+v", p)
	}
	if est.Degraded || len(est.Coverage.Skipped) != 0 {
		t.Fatalf("bounded answer degraded with all shards up: %+v", est.Coverage)
	}
	// Coverage composition: the answer's population is exactly the summed
	// population of the merged partitions, and merged+pruned is the full set.
	if want := int64(per * len(est.Coverage.Merged)); est.Sample.ParentSize != want || p.CoveredPopulation != want {
		t.Fatalf("covered %d / sample %d, want %d (= %d merged × %d)",
			p.CoveredPopulation, est.Sample.ParentSize, want, len(est.Coverage.Merged), per)
	}
	if p.TotalPopulation != parts*per {
		t.Fatalf("total population %d, want %d", p.TotalPopulation, parts*per)
	}
	if len(est.Coverage.Merged)+len(est.Coverage.Pruned) != parts {
		t.Fatalf("merged %d + pruned %d != %d", len(est.Coverage.Merged), len(est.Coverage.Pruned), parts)
	}
	if p.AchievedHalfWidth < 0 || p.AchievedHalfWidth > 0.45 {
		t.Fatalf("cross-shard achieved half-width %v, want in [0, 0.45]", p.AchievedHalfWidth)
	}
	if est.Estimate == nil {
		t.Fatal("bounded cluster estimate has no estimate body")
	}
}

// TestClusterBoundedDegradedComposition combines pruning with real shard
// loss: the dead shard's partitions surface as skipped (degrading the
// answer), the live shards still prune under the bound, and the coverage
// arithmetic stays exact over only the partitions actually merged.
func TestClusterBoundedDegradedComposition(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 1, writeQuorum: 1})
	tc.createDataset(ctx, 0, "d", 8192)

	const parts, per = 12, 100
	allParts := make([]string, 0, parts)
	for i := 0; i < parts; i++ {
		part := fmt.Sprintf("p%02d", i)
		allParts = append(allParts, part)
		if _, err := tc.clients[0].IngestValues(ctx, "d", part, 0, seqValues(int64(i*per), per)); err != nil {
			t.Fatalf("ingest %s: %v", part, err)
		}
	}
	victim := 2
	var deadParts int
	for _, part := range allParts {
		if tc.chainOf("d", part)[0] == victim {
			deadParts++
		}
	}
	if deadParts == 0 || deadParts == parts {
		t.Fatalf("placement gave victim %d partitions; fixture needs a mix", deadParts)
	}
	tc.kill(victim)

	est, err := tc.clients[0].Estimate(ctx, "d", "fraction:0..599", QueryOpts{Parts: allParts, MaxErr: 0.45})
	if err != nil {
		t.Fatalf("bounded degraded estimate: %v", err)
	}
	if !est.Degraded || len(est.Coverage.Skipped) != deadParts {
		t.Fatalf("want %d skipped partitions and a degraded flag: %+v", deadParts, est.Coverage)
	}
	p := est.Plan
	if p == nil {
		t.Fatal("degraded bounded answer carries no plan")
	}
	// Merged, pruned and skipped partition the requested set.
	seen := map[string]bool{}
	for _, id := range est.Coverage.Merged {
		seen[id] = true
	}
	for _, id := range est.Coverage.Pruned {
		if seen[id] {
			t.Fatalf("partition %s both merged and pruned", id)
		}
		seen[id] = true
	}
	for _, sk := range est.Coverage.Skipped {
		if seen[sk.ID] {
			t.Fatalf("partition %s skipped and also merged/pruned", sk.ID)
		}
		seen[sk.ID] = true
	}
	if len(seen) != parts {
		t.Fatalf("merged+pruned+skipped covers %d of %d partitions", len(seen), parts)
	}
	// The coverage property holds over what was actually merged, and the
	// total only counts populations the reachable shards could vouch for.
	if want := int64(per * len(est.Coverage.Merged)); est.Sample.ParentSize != want || p.CoveredPopulation != want {
		t.Fatalf("covered %d / sample %d, want %d", p.CoveredPopulation, est.Sample.ParentSize, want)
	}
	if want := int64(per * (parts - deadParts)); p.TotalPopulation != want {
		t.Fatalf("total population %d, want %d (reachable shards only)", p.TotalPopulation, want)
	}

	// Strict mode still refuses the degraded (not the pruned) answer.
	_, err = tc.clients[0].Estimate(ctx, "d", "fraction:0..599", QueryOpts{Parts: allParts, MaxErr: 0.45, Strict: true})
	ae := new(APIError)
	if err == nil || !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict bounded degraded query: %v, want 502", err)
	}
}

// TestClusterBadConfidenceLeavesBreakersClosed: a client's unsupported
// confidence on a bounded read is its own error. The coordinator answers 400
// before scattering, so no healthy peer is charged a failure for it: after
// more such requests than the breaker needs to trip, every breaker in every
// node's /clusterz is still closed.
func TestClusterBadConfidenceLeavesBreakersClosed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 2})
	tc.createDataset(ctx, 0, "d", 512)
	for i := 0; i < 6; i++ {
		if _, err := tc.clients[0].IngestValues(ctx, "d", fmt.Sprintf("p%d", i), 0, seqValues(int64(i*100), 100)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	bad := QueryOpts{MaxErr: 0.3, Confidence: 0.8}
	for i := 0; i < 12; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = tc.clients[0].Estimate(ctx, "d", "fraction:0..99", bad)
		case 1:
			_, err = tc.clients[0].Estimate(ctx, "d", "avg", QueryOpts{MaxTime: 10 * time.Second, Confidence: 0.8})
		default:
			_, err = tc.clients[0].Sample(ctx, "d", bad)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d with confidence 0.8: %v, want 400", i, err)
		}
	}
	for node, cl := range tc.clients {
		st, err := cl.ClusterStatus(ctx)
		if err != nil {
			t.Fatalf("node %d clusterz: %v", node, err)
		}
		for _, p := range st.Peers {
			if p.Breaker != "closed" {
				t.Fatalf("node %d: peer %d breaker %q after client errors, want closed", node, p.Shard, p.Breaker)
			}
		}
	}
}

// TestBoundedExactNeedsExhaustiveProof: a bounded answer is exact only when
// every partition it proved out of range was proved over all of its rows. An
// exhaustive in-range partition beside a large partition whose sidecar was
// built from its sample is not exact, bounded or not, however complete the
// rest of the read.
func TestBoundedExactNeedsExhaustiveProof(t *testing.T) {
	wh := warehouse.New[int64](storage.NewMemStore[int64](), 42)
	if err := wh.CreateDataset("d", warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: core.ConfigForNF(512)}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		id     string
		lo, hi int64
	}{{"small", 0, 100}, {"large", 10000, 15000}} {
		smp, err := wh.NewPartitionSampler("d", p.id, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := p.lo; v < p.hi; v++ {
			smp.Feed(v)
		}
		fin, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.RollIn("d", p.id, fin); err != nil {
			t.Fatal(err)
		}
	}
	s := New(wh, Config{})
	for _, target := range []string{
		"/v1/datasets/d/estimate?q=count:0..99&maxerr=0.3",
		"/v1/datasets/d/estimate?q=fraction:0..99&maxerr=0.3",
		"/v1/datasets/d/estimate?q=count:0..99",
	} {
		w := do(t, s, http.MethodGet, target, "")
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, w.Code, w.Body.String())
		}
		resp := decode[EstimateResponse](t, w)
		if len(resp.Coverage.SketchPruned) != 1 || resp.Estimate == nil {
			t.Fatalf("%s: want the large partition proven out of range: %+v", target, resp.Coverage)
		}
		if resp.Estimate.Exact {
			t.Fatalf("%s: %+v claims exact over a partition proven only over its sample", target, *resp.Estimate)
		}
	}
}
