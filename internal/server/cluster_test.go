package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// testCluster is an in-process cluster: n warehouses, n Servers in cluster
// mode, n real HTTP listeners. Listeners are bound first so every node knows
// the full peer list before any server starts.
type testCluster struct {
	t       *testing.T
	servers []*Server
	whs     []*warehouse.Warehouse[int64]
	https   []*http.Server
	addrs   []string
	clients []*Client
	killed  []bool
}

// clusterOpts tunes newTestCluster. The zero value selects replication 1
// with default breaker/hedge settings.
type clusterOpts struct {
	replication int
	writeQuorum int
	breaker     BreakerConfig
	hedgeOff    bool
	hedgeInit   time.Duration
	// httpClient, when non-nil, builds coordinator→peer HTTP clients for
	// the owner shard (fault-injecting transports plug in here).
	httpClient func(owner, peer int, addr string) *http.Client
}

func newTestCluster(t *testing.T, n int, o clusterOpts) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, killed: make([]bool, n)}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen shard %d: %v", i, err)
		}
		lns[i] = ln
		tc.addrs = append(tc.addrs, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		wh := warehouse.New[int64](storage.NewMemStore[int64](), uint64(1000+i))
		srv := New(wh, Config{DefaultTimeout: 5 * time.Second, Registry: obs.NewRegistry()})
		ccfg := ClusterConfig{
			Peers:         tc.addrs,
			ShardID:       i,
			Replication:   o.replication,
			WriteQuorum:   o.writeQuorum,
			Breaker:       o.breaker,
			HedgeDisabled: o.hedgeOff,
			HedgeInitial:  o.hedgeInit,
		}
		if o.httpClient != nil {
			owner := i
			ccfg.HTTPClient = func(peer int, addr string) *http.Client {
				return o.httpClient(owner, peer, addr)
			}
		}
		if err := srv.EnableCluster(ccfg); err != nil {
			t.Fatalf("enable cluster shard %d: %v", i, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		tc.servers = append(tc.servers, srv)
		tc.whs = append(tc.whs, wh)
		tc.https = append(tc.https, hs)
		tc.clients = append(tc.clients, NewClient(tc.addrs[i], nil).SetRetryPolicy(NoRetry()))
	}
	t.Cleanup(func() {
		for i, hs := range tc.https {
			if !tc.killed[i] {
				hs.Close()
			}
		}
	})
	return tc
}

// kill SIGKILLs a shard, in-process style: its listener and connections
// close immediately; no drain.
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	tc.killed[i] = true
	tc.https[i].Close()
}

// createDataset creates ds via the given shard (broadcast reaches peers).
func (tc *testCluster) createDataset(ctx context.Context, via int, name string, nf int64) {
	tc.t.Helper()
	if _, err := tc.clients[via].CreateDataset(ctx, CreateDatasetRequest{Name: name, NF: nf}); err != nil {
		tc.t.Fatalf("create dataset: %v", err)
	}
}

// primaryOf returns the replica chain (shard ids) for ds/part.
func (tc *testCluster) chainOf(ds, part string) []int {
	return tc.servers[0].cluster.place.Replicas(placementKey(ds, part))
}

// seqValues builds [lo, lo+n) as a value slice.
func seqValues(lo int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

func TestClusterScatterGatherEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 2})
	tc.createDataset(ctx, 0, "d", 8192)

	// The creation broadcast must have reached every shard.
	for i := range tc.clients {
		if _, err := tc.clients[i].Dataset(ctx, "d"); err != nil {
			t.Fatalf("shard %d does not know data set d: %v", i, err)
		}
	}

	// Ingest 12 partitions of 100 values through different coordinators.
	const parts, per = 12, 100
	var total int64
	for i := 0; i < parts; i++ {
		vals := seqValues(int64(i*per), per)
		for _, v := range vals {
			total += v
		}
		resp, err := tc.clients[i%3].IngestValues(ctx, "d", fmt.Sprintf("p%02d", i), 0, vals)
		if err != nil {
			t.Fatalf("ingest p%02d: %v", i, err)
		}
		if resp.Degraded {
			t.Fatalf("ingest p%02d degraded with all shards up: %+v", i, resp.Replicas)
		}
		oks := 0
		for _, rs := range resp.Replicas {
			if rs.State == "ok" || rs.State == "replayed" {
				oks++
			}
		}
		if oks != 2 {
			t.Fatalf("ingest p%02d: %d replica acks, want 2: %+v", i, oks, resp.Replicas)
		}
	}

	// Every replica holds its chain's partitions locally.
	for i := 0; i < parts; i++ {
		part := fmt.Sprintf("p%02d", i)
		for _, shard := range tc.chainOf("d", part) {
			if _, err := tc.clients[shard].PartitionInfo(ctx, "d", part); err != nil {
				t.Fatalf("replica %d missing %s: %v", shard, part, err)
			}
		}
	}

	// Scatter-gather through every coordinator: full coverage, exact sum
	// (1200 values fit NF 8192, so every shard sample is exhaustive and the
	// merged sample is too).
	for via := 0; via < 3; via++ {
		est, err := tc.clients[via].Estimate(ctx, "d", "sum", QueryOpts{})
		if err != nil {
			t.Fatalf("estimate via shard %d: %v", via, err)
		}
		if est.Degraded || est.Coverage.Partial {
			t.Fatalf("estimate via %d degraded with all shards up: %+v", via, est.Coverage)
		}
		if got := len(est.Coverage.Merged); got != parts {
			t.Fatalf("estimate via %d merged %d partitions, want %d", via, got, parts)
		}
		if est.Estimate == nil || est.Estimate.Value != float64(total) {
			t.Fatalf("estimate via %d: %+v, want exact sum %d", via, est.Estimate, total)
		}
		if est.Sample.ParentSize != parts*per {
			t.Fatalf("estimate via %d parent size %d, want %d", via, est.Sample.ParentSize, parts*per)
		}
	}

	// Sample path returns the merged values and per-shard statuses.
	smp, err := tc.clients[1].Sample(ctx, "d", QueryOpts{})
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	if smp.Sample.ParentSize != parts*per || smp.Degraded {
		t.Fatalf("sample meta %+v degraded=%v", smp.Sample, smp.Degraded)
	}
	if len(smp.Shards) == 0 {
		t.Fatal("cluster sample response carries no shard statuses")
	}
	for _, sh := range smp.Shards {
		if sh.State != "ok" {
			t.Fatalf("shard status %+v, want ok", sh)
		}
	}
}

func TestClusterDegradedWhenShardDies(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Replication 1: a dead shard's partitions are genuinely gone.
	tc := newTestCluster(t, 3, clusterOpts{replication: 1, writeQuorum: 1})
	tc.createDataset(ctx, 0, "d", 8192)

	const parts, per = 12, 50
	allParts := make([]string, 0, parts)
	partSum := map[string]int64{}
	var total int64
	for i := 0; i < parts; i++ {
		part := fmt.Sprintf("p%02d", i)
		allParts = append(allParts, part)
		vals := seqValues(int64(i*per), per)
		for _, v := range vals {
			partSum[part] += v
			total += v
		}
		if _, err := tc.clients[0].IngestValues(ctx, "d", part, 0, vals); err != nil {
			t.Fatalf("ingest %s: %v", part, err)
		}
	}

	victim := 2
	var deadParts, liveParts []string
	var liveSum int64
	var liveCount int64
	for _, part := range allParts {
		if tc.chainOf("d", part)[0] == victim {
			deadParts = append(deadParts, part)
		} else {
			liveParts = append(liveParts, part)
			liveSum += partSum[part]
			liveCount += per
		}
	}
	if len(deadParts) == 0 {
		t.Fatalf("victim shard %d owns no partitions; placement %v", victim, allParts)
	}
	tc.kill(victim)

	// Explicit partition list: the dead shard's partitions are skipped (with
	// per-shard error detail), the covered ones answer — never an error.
	est, err := tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{Parts: allParts})
	if err != nil {
		t.Fatalf("degraded estimate: %v", err)
	}
	if !est.Degraded || !est.Coverage.Partial {
		t.Fatalf("answer not degraded with shard %d dead: %+v", victim, est.Coverage)
	}
	if len(est.Coverage.Skipped) != len(deadParts) {
		t.Fatalf("skipped %d partitions, want %d: %+v", len(est.Coverage.Skipped), len(deadParts), est.Coverage.Skipped)
	}
	skippedSet := map[string]bool{}
	for _, sk := range est.Coverage.Skipped {
		skippedSet[sk.ID] = true
		if sk.Reason == "" {
			t.Fatalf("skipped partition %s without reason", sk.ID)
		}
	}
	for _, part := range deadParts {
		if !skippedSet[part] {
			t.Fatalf("dead shard's partition %s not in skipped set %v", part, est.Coverage.Skipped)
		}
	}
	if est.Estimate == nil || est.Estimate.Value != float64(liveSum) {
		t.Fatalf("degraded sum %+v, want %d (covered partitions only)", est.Estimate, liveSum)
	}
	if est.Sample.ParentSize != liveCount {
		t.Fatalf("degraded parent size %d, want %d", est.Sample.ParentSize, liveCount)
	}
	foundDead := false
	for _, sh := range est.Shards {
		if sh.Shard == victim {
			foundDead = true
			if sh.State == "ok" || sh.Error == "" {
				t.Fatalf("dead shard status %+v, want error detail", sh)
			}
		}
	}
	if !foundDead {
		t.Fatalf("no status for dead shard %d: %+v", victim, est.Shards)
	}

	// Strict mode refuses the partial answer instead.
	_, err = tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{Parts: allParts, Strict: true})
	ae := new(APIError)
	if err == nil || !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict degraded query: %v, want 502", err)
	}

	// Discovery (no parts given) cannot see the dead shard's partitions at
	// replication 1: the answer over the visible ones still arrives, and is
	// flagged degraded because discovery itself was blind.
	est, err = tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{})
	if err != nil {
		t.Fatalf("blind-discovery estimate: %v", err)
	}
	if !est.Degraded {
		t.Fatal("discovery answer must be degraded when a replication-1 peer is unreachable")
	}
	if est.Estimate == nil || est.Estimate.Value != float64(liveSum) {
		t.Fatalf("blind-discovery sum %+v, want %d", est.Estimate, liveSum)
	}
}

func TestClusterFailoverCoversReplicatedPartitions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Replication 2, write quorum 1: every partition survives one dead shard.
	tc := newTestCluster(t, 3, clusterOpts{replication: 2, writeQuorum: 1})
	tc.createDataset(ctx, 0, "d", 8192)

	const parts, per = 9, 50
	var total int64
	for i := 0; i < parts; i++ {
		vals := seqValues(int64(i*per), per)
		for _, v := range vals {
			total += v
		}
		if _, err := tc.clients[0].IngestValues(ctx, "d", fmt.Sprintf("p%02d", i), 0, vals); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	tc.kill(2)

	// Coordinator 0 fails over to the surviving replica of every group the
	// dead shard led: full coverage, not degraded.
	est, err := tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{})
	if err != nil {
		t.Fatalf("estimate after kill: %v", err)
	}
	if est.Degraded || est.Coverage.Partial {
		t.Fatalf("replicated cluster degraded after one death: %+v", est.Coverage)
	}
	if got := len(est.Coverage.Merged); got != parts {
		t.Fatalf("merged %d partitions, want %d", got, parts)
	}
	if est.Estimate == nil || est.Estimate.Value != float64(total) {
		t.Fatalf("failover sum %+v, want %d", est.Estimate, total)
	}

	// Writes still reach quorum 1 on the surviving replica; the response
	// reports the dead replica and flags the write degraded.
	resp, err := tc.clients[0].IngestValues(ctx, "d", "extra", 0, seqValues(0, per))
	if err != nil {
		t.Fatalf("ingest after kill: %v", err)
	}
	if chain := tc.chainOf("d", "extra"); chain[0] == 2 || chain[1] == 2 {
		if !resp.Degraded {
			t.Fatalf("ingest touching dead replica not degraded: %+v", resp.Replicas)
		}
	}
}

func TestClusterBreakerStopsRoutingToDeadPeer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{
		replication: 2,
		writeQuorum: 1,
		// Small window, long OpenFor: the breaker trips fast and stays open
		// for the rest of the test.
		breaker: BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5, OpenFor: time.Minute},
	})
	tc.createDataset(ctx, 0, "d", 8192)
	const parts, per = 9, 50
	for i := 0; i < parts; i++ {
		if _, err := tc.clients[0].IngestValues(ctx, "d", fmt.Sprintf("p%02d", i), 0, seqValues(int64(i*per), per)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	tc.kill(2)

	// Drive queries until the coordinator's breaker for the dead peer opens
	// (each query records connection-refused outcomes against it).
	deadline := time.Now().Add(10 * time.Second)
	for tc.servers[0].cluster.peers[2].br.State() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker for dead peer never opened (state %v)",
				tc.servers[0].cluster.peers[2].br.State())
		}
		if _, err := tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{}); err != nil {
			t.Fatalf("query during breaker warm-up: %v", err)
		}
	}

	// With the breaker open the dead peer is skipped without spending any
	// deadline budget: a tight-deadline query still answers fully.
	skipsBefore := tc.servers[0].cluster.o.breakerSkips.Value()
	est, err := tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("query with open breaker: %v", err)
	}
	if est.Degraded || len(est.Coverage.Merged) != parts {
		t.Fatalf("open-breaker query degraded or incomplete: %+v", est.Coverage)
	}
	if tc.servers[0].cluster.o.breakerSkips.Value() <= skipsBefore {
		t.Fatal("breaker skips did not increase; dead peer was still dialed")
	}
	for _, sh := range est.Shards {
		if sh.Shard == 2 && sh.State != "breaker_open" {
			t.Fatalf("dead shard status %+v, want breaker_open", sh)
		}
	}
}

func TestClusterHedgingCutsSlowShardLatency(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const slowShard = 1
	slow := 400 * time.Millisecond
	// Shard 0's client for peer 1 pays an injected 400ms dial latency on
	// every exchange; hedges fire after 40ms to the other replica.
	tc := newTestCluster(t, 2, clusterOpts{
		replication: 2,
		writeQuorum: 1,
		hedgeInit:   40 * time.Millisecond,
		httpClient: func(owner, peer int, addr string) *http.Client {
			if owner == 0 && peer == slowShard {
				return &http.Client{Transport: faults.NewTransport(nil,
					faults.NetRates{Seed: 1, DialLatency: slow, LatencyProb: 1.0})}
			}
			return nil
		},
	})
	tc.createDataset(ctx, 0, "d", 8192)

	// Pick partitions whose replica chain is led by the slow shard: the
	// coordinator's first attempt goes to it and must be rescued by a hedge
	// to the other replica. Discovery is skipped (explicit parts) so the only
	// path touching the slow peer is the hedgeable group fetch.
	const per = 50
	var slowLed []string
	var total int64
	for i := 0; len(slowLed) < 4; i++ {
		part := fmt.Sprintf("p%03d", i)
		if tc.chainOf("d", part)[0] != slowShard {
			continue
		}
		slowLed = append(slowLed, part)
		vals := seqValues(int64(i*per), per)
		for _, v := range vals {
			total += v
		}
		// Ingest via shard 1 so shard 0's slow client is not exercised yet.
		if _, err := tc.clients[1].IngestValues(ctx, "d", part, 0, vals); err != nil {
			t.Fatalf("ingest %s: %v", part, err)
		}
	}

	// With replication 2 every partition also lives on shard 0, so the hedge
	// target (the local replica) can always answer. The query must finish
	// well under the injected 400ms.
	start := time.Now()
	est, err := tc.clients[0].Estimate(ctx, "d", "sum", QueryOpts{Parts: slowLed, Timeout: 5 * time.Second})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged estimate: %v", err)
	}
	if est.Degraded || est.Estimate == nil || est.Estimate.Value != float64(total) {
		t.Fatalf("hedged answer wrong: %+v degraded=%v", est.Estimate, est.Degraded)
	}
	if elapsed >= slow {
		t.Fatalf("hedged query took %v, want well under the %v slow-shard latency", elapsed, slow)
	}
	if tc.servers[0].cluster.o.hedged.Value() == 0 {
		t.Fatal("no hedged requests fired against the slow shard")
	}
	if tc.servers[0].cluster.o.hedgeWins.Value() == 0 {
		t.Fatal("no hedged request won against the slow shard")
	}
}

func TestClusterWriteQuorumRejectsWhenUnmet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Replication 2 with strict quorum 2: one dead replica fails the write.
	tc := newTestCluster(t, 3, clusterOpts{replication: 2, writeQuorum: 2})
	tc.createDataset(ctx, 0, "d", 8192)
	tc.kill(2)

	// Find a partition whose chain includes the dead shard but is
	// coordinated by a live one.
	var part string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("q%03d", i)
		chain := tc.chainOf("d", cand)
		if (chain[0] == 2 || chain[1] == 2) && chain[0] != 2 {
			part = cand
			break
		}
	}
	_, err := tc.clients[tc.chainOf("d", part)[0]].IngestValues(ctx, "d", part, 0, seqValues(0, 50))
	ae := new(APIError)
	if err == nil || !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quorum-2 ingest with dead replica: %v, want 503", err)
	}

	// A partition fully on live shards still ingests.
	var livePart string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("r%03d", i)
		chain := tc.chainOf("d", cand)
		if chain[0] != 2 && chain[1] != 2 {
			livePart = cand
			break
		}
	}
	if _, err := tc.clients[0].IngestValues(ctx, "d", livePart, 0, seqValues(0, 50)); err != nil {
		t.Fatalf("ingest on live chain: %v", err)
	}
}

func TestClusterKeyedIngestIsExactlyOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 2})
	tc.createDataset(ctx, 0, "d", 8192)

	vals := seqValues(0, 100)
	body := valuesBody(vals)
	first, err := tc.clients[0].IngestKeyed(ctx, "d", "p0", 0, "batch-1", strings.NewReader(body))
	if err != nil {
		t.Fatalf("first keyed ingest: %v", err)
	}
	// The client's retry (same coordinator, same key) replays.
	second, err := tc.clients[0].IngestKeyed(ctx, "d", "p0", 0, "batch-1", strings.NewReader(body))
	if err != nil {
		t.Fatalf("retried keyed ingest: %v", err)
	}
	if second.Read != first.Read || second.Sample.ParentSize != first.Sample.ParentSize {
		t.Fatalf("replayed response diverged: %+v vs %+v", second, first)
	}
	// A retry through a different coordinator reaches the same replicas,
	// whose own idempotency registries replay — the partition must still
	// hold exactly one batch.
	third, err := tc.clients[1].IngestKeyed(ctx, "d", "p0", 0, "batch-1", strings.NewReader(body))
	if err != nil {
		t.Fatalf("cross-coordinator retry: %v", err)
	}
	if third.Sample.ParentSize != 100 {
		t.Fatalf("cross-coordinator retry parent size %d, want 100", third.Sample.ParentSize)
	}
	for _, rs := range third.Replicas {
		if rs.State != "replayed" {
			t.Fatalf("cross-coordinator retry replica %+v, want replayed", rs)
		}
	}
	smp, err := tc.clients[2].Sample(ctx, "d", QueryOpts{Parts: []string{"p0"}})
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	if smp.Sample.ParentSize != 100 {
		t.Fatalf("partition parent size %d after retries, want exactly 100", smp.Sample.ParentSize)
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 2})
	tc.createDataset(ctx, 0, "d", 8192)
	for i := 0; i < 6; i++ {
		if _, err := tc.clients[0].IngestValues(ctx, "d", fmt.Sprintf("p%d", i), 0, seqValues(0, 10)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	st, err := tc.clients[0].ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	if st.ShardID != 0 || st.Shards != 3 || st.Replication != 2 || st.WriteQuorum != 2 {
		t.Fatalf("status header %+v", st)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("%d peers, want 3", len(st.Peers))
	}
	for i, p := range st.Peers {
		if !p.Ready {
			t.Fatalf("peer %d not ready: %+v", i, p)
		}
		if p.Breaker != "closed" {
			t.Fatalf("peer %d breaker %q, want closed", i, p.Breaker)
		}
	}
	if !st.Peers[0].Self {
		t.Fatal("peer 0 should be self on shard 0")
	}
	if len(st.Placement) != 1 || st.Placement[0].Dataset != "d" {
		t.Fatalf("placement %+v", st.Placement)
	}
	tc.kill(2)
	st, err = tc.clients[0].ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("cluster status after kill: %v", err)
	}
	if st.Peers[2].Ready || st.Peers[2].Error == "" {
		t.Fatalf("dead peer reported ready: %+v", st.Peers[2])
	}

	// A non-cluster server answers 404 on /clusterz.
	solo := newTestServer(t, Config{})
	if w := do(t, solo, http.MethodGet, "/clusterz", ""); w.Code != http.StatusNotFound {
		t.Fatalf("solo clusterz %d, want 404", w.Code)
	}
}

// TestClusterQueryHealsMissedDatasetCreate: a node that was down during the
// dataset-create broadcast must not answer 404 to coordinated queries for
// data the cluster holds — the query path heals the definition from a peer,
// the same pull a forwarded ingest performs, so a query-only workload converges.
func TestClusterQueryHealsMissedDatasetCreate(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 2, clusterOpts{replication: 1, hedgeOff: true})

	// Shard 1 knows the data set; shard 0 "missed the broadcast" (it never
	// hears about it — the definition is planted directly in shard 1's
	// warehouse, no cluster create involved).
	cfg, err := DatasetConfig(CreateDatasetRequest{Name: "heal", NF: 2048})
	if err != nil {
		t.Fatalf("dataset config: %v", err)
	}
	if err := tc.whs[1].CreateDataset("heal", cfg); err != nil {
		t.Fatalf("create on shard 1: %v", err)
	}

	// Pick a partition placed on shard 1 so ingest never touches shard 0.
	part := ""
	for i := 0; i < 256; i++ {
		p := fmt.Sprintf("p%03d", i)
		if tc.chainOf("heal", p)[0] == 1 {
			part = p
			break
		}
	}
	if part == "" {
		t.Fatal("no partition placed on shard 1")
	}
	if _, err := tc.clients[1].IngestValues(ctx, "heal", part, 0, seqValues(0, 500)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := tc.whs[0].Config("heal"); err == nil {
		t.Fatal("shard 0 must not know the data set yet")
	}

	// Querying via shard 0 must heal and answer, not 404.
	resp, err := tc.clients[0].Sample(ctx, "heal", QueryOpts{})
	if err != nil {
		t.Fatalf("coordinated query via shard 0: %v", err)
	}
	if resp.Degraded {
		t.Fatalf("healed answer must not be degraded: %+v", resp.Coverage)
	}
	if len(resp.Coverage.Merged) != 1 || resp.Coverage.Merged[0] != part {
		t.Fatalf("coverage %v, want [%s]", resp.Coverage.Merged, part)
	}
	if _, err := tc.whs[0].Config("heal"); err != nil {
		t.Fatalf("shard 0 must hold the healed definition: %v", err)
	}
}

// TestClusterRollOutReportsDegradedReplica: a roll-out that a dead replica
// did not apply must say so — per-replica outcomes plus degraded. With
// repair off (as here) the partition resurrects when that replica recovers
// and the caller retries the idempotent delete; with repair on a tombstone
// hint handles it (TestClusterRollOutTombstoneHint).
func TestClusterRollOutReportsDegradedReplica(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, clusterOpts{replication: 2, writeQuorum: 1, hedgeOff: true})
	tc.createDataset(ctx, 0, "ro", 2048)
	if _, err := tc.clients[0].IngestValues(ctx, "ro", "p1", 0, seqValues(0, 300)); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	chain := tc.chainOf("ro", "p1")
	dead, live := chain[1], chain[0]
	tc.kill(dead)

	// Coordinate the delete via the live replica.
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		tc.addrs[live]+"/v1/datasets/ro/partitions/p1", nil)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("rollout: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("rollout status %d, want 200", hresp.StatusCode)
	}
	var resp RollOutResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode rollout response: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("rollout with a dead replica must be degraded: %+v", resp)
	}
	states := map[int]string{}
	for _, st := range resp.Replicas {
		states[st.Shard] = st.State
	}
	if states[live] != "ok" {
		t.Fatalf("live replica state %q, want ok (%+v)", states[live], resp.Replicas)
	}
	if states[dead] != "error" && states[dead] != "breaker_open" {
		t.Fatalf("dead replica state %q, want error or breaker_open (%+v)", states[dead], resp.Replicas)
	}
}

// TestClusterQueryLeavesCachedSamplesWhole: a warehouse hands its queries the
// cached sample itself, and the coordinator folds the legs' samples with
// consuming merges — so what the self leg returns must be the query's own
// copy even when it covers a single partition and merges nothing. With one
// reservoir partition per shard, a fold that ate a cached sample would shrink
// it, and the repeated query's min-size merge with it.
func TestClusterQueryLeavesCachedSamplesWhole(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{})
	for _, wh := range tc.whs {
		wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: 1 << 20})
	}
	const nf = 64
	tc.createDataset(ctx, 0, "d", nf)
	owned := map[int]bool{}
	for i := 0; len(owned) < 3 && i < 200; i++ {
		part := fmt.Sprintf("p%03d", i)
		if shard := tc.chainOf("d", part)[0]; !owned[shard] {
			owned[shard] = true
			if _, err := tc.clients[0].IngestValues(ctx, "d", part, 0, seqValues(int64(i)*1000, 1000)); err != nil {
				t.Fatalf("ingest %s: %v", part, err)
			}
		}
	}
	if len(owned) != 3 {
		t.Fatalf("placed partitions on shards %v, want one on each of 3", owned)
	}
	for via := range tc.clients {
		for round := 1; round <= 2; round++ {
			smp, err := tc.clients[via].Sample(ctx, "d", QueryOpts{})
			if err != nil {
				t.Fatalf("sample via %d, round %d: %v", via, round, err)
			}
			if smp.Degraded || len(smp.Coverage.Merged) != 3 {
				t.Fatalf("via %d round %d: coverage %+v", via, round, smp.Coverage)
			}
			if smp.Sample.Size != nf || smp.Sample.ParentSize != 3000 {
				t.Fatalf("via %d round %d: merged sample %+v, want size %d of 3000", via, round, smp.Sample, nf)
			}
		}
	}
}

// TestClusterHBScatter: an HB data set's shard samples are Bernoulli samples
// at unequal rates, and the coordinator merges them with the warehouse's one
// merge — thinned to q(ΣN, p, n_F) — so the answer covers every partition
// with its exact population, at the rate the union's size calls for.
func TestClusterHBScatter(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 3, clusterOpts{replication: 2})
	const nf, parts, per = 256, 9, 2000
	if _, err := tc.clients[0].CreateDataset(ctx, CreateDatasetRequest{Name: "hb", Algorithm: "HB", NF: nf}); err != nil {
		t.Fatalf("create dataset: %v", err)
	}
	for i := 0; i < parts; i++ {
		if _, err := tc.clients[i%3].IngestValues(ctx, "hb", fmt.Sprintf("p%02d", i), per, seqValues(int64(i*per), per)); err != nil {
			t.Fatalf("ingest p%02d: %v", i, err)
		}
	}
	wantQ := core.QApprox(parts*per, core.DefaultExceedProb, nf)
	for via := range tc.clients {
		smp, err := tc.clients[via].Sample(ctx, "hb", QueryOpts{})
		if err != nil {
			t.Fatalf("sample via %d: %v", via, err)
		}
		if smp.Degraded || smp.Coverage.Partial || len(smp.Coverage.Merged) != parts {
			t.Fatalf("via %d: coverage %+v degraded=%v, want all %d partitions", via, smp.Coverage, smp.Degraded, parts)
		}
		if m := smp.Sample; m.ParentSize != parts*per || m.Kind != "bernoulli" || m.Q != wantQ || m.Size > nf {
			t.Fatalf("via %d: merged %+v, want a Bernoulli sample of all %d rows at q = %v", via, m, parts*per, wantQ)
		}
	}
}

// TestClusterIngestHealsMissedDatasetCreate: a coordinator that missed the
// create broadcast pulls the definition before it validates a keyed ingest,
// as its replica leg would, instead of answering 404 for a data set the
// cluster holds. The batch lands on the whole chain, and a resend with the
// same key replays.
func TestClusterIngestHealsMissedDatasetCreate(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 2, clusterOpts{replication: 2, hedgeOff: true})
	cfg, err := DatasetConfig(CreateDatasetRequest{Name: "heal", NF: 2048})
	if err != nil {
		t.Fatalf("dataset config: %v", err)
	}
	if err := tc.whs[1].CreateDataset("heal", cfg); err != nil {
		t.Fatalf("create on shard 1: %v", err)
	}
	body := valuesBody(seqValues(0, 500))
	resp, replayed, err := tc.clients[0].putPartition(ctx, "heal", "p0", 0, "batch-1", strings.NewReader(body), false)
	if err != nil {
		t.Fatalf("keyed ingest via the coordinator that missed the create: %v", err)
	}
	if replayed || resp.Degraded || len(resp.Replicas) != 2 {
		t.Fatalf("ingest replayed=%v degraded=%v replicas %+v, want both replicas ok", replayed, resp.Degraded, resp.Replicas)
	}
	for _, rs := range resp.Replicas {
		if rs.State != "ok" {
			t.Fatalf("replica %+v, want ok", rs)
		}
	}
	for i, wh := range tc.whs {
		if s, err := wh.PartitionSampleContext(ctx, "heal", "p0"); err != nil || s.ParentSize != 500 {
			t.Fatalf("shard %d holds p0 as %v (%v), want 500 rows", i, s, err)
		}
	}
	if _, replayed, err = tc.clients[0].putPartition(ctx, "heal", "p0", 0, "batch-1", strings.NewReader(body), false); err != nil || !replayed {
		t.Fatalf("resend with the same key: replayed=%v err=%v, want replayed", replayed, err)
	}
}

// TestSampleFromWire: a shard's values arrive in ascending order, so the
// coordinator adopts them as they come and refuses an answer that repeats a
// value, goes back down, or carries a count below one — where rebuilding by
// inserts would have summed a repeat silently.
func TestSampleFromWire(t *testing.T) {
	cc := core.ConfigForNF(64)
	meta := SampleMeta{Kind: "reservoir", Size: 4, ParentSize: 100}
	for _, tc := range []struct {
		name   string
		values []ValueCount
		ok     bool
	}{
		{"ascending", []ValueCount{{1, 1}, {3, 2}, {7, 1}}, true},
		{"empty", nil, true},
		{"repeated", []ValueCount{{1, 1}, {3, 1}, {3, 2}}, false},
		{"out of order", []ValueCount{{1, 1}, {7, 2}, {3, 1}}, false},
		{"zero count", []ValueCount{{1, 1}, {3, 0}, {7, 3}}, false},
		{"negative count", []ValueCount{{1, -1}, {3, 2}, {7, 3}}, false},
	} {
		smp, err := sampleFromWire(SampleResponse{Sample: meta, Values: tc.values}, cc)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted as %v", tc.name, smp)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var n int64
		for i, vc := range tc.values {
			if e := smp.Hist.Entry(i); e.Value != vc.Value || e.Count != vc.Count {
				t.Fatalf("%s: entry %d is %+v, want %+v", tc.name, i, e, vc)
			}
			n += vc.Count
		}
		if smp.Size() != n || smp.Hist.Distinct() != len(tc.values) || smp.ParentSize != 100 {
			t.Fatalf("%s: rebuilt %v, want %d values", tc.name, smp, n)
		}
	}
}
