package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// ---------------------------------------------------------------------------
// Unit tests: hint key packing, pull predicate, idempotency registry bounds.
// ---------------------------------------------------------------------------

func TestHintPartitionRoundTrip(t *testing.T) {
	cases := []struct {
		shard int
		part  string
	}{
		{0, "p00"},
		{7, ""},
		{12, "part-with-\x00-weird"},
		{3, "2024-06-01"},
	}
	for _, c := range cases {
		packed := hintPartition(c.shard, c.part)
		shard, part, ok := unpackHintPartition(packed)
		if !ok || shard != c.shard || part != c.part {
			t.Errorf("round trip (%d, %q) -> %q -> (%d, %q, %v)",
				c.shard, c.part, packed, shard, part, ok)
		}
	}
	if _, _, ok := unpackHintPartition("no-separator"); ok {
		t.Error("unpackHintPartition accepted a string without a separator")
	}
	if _, _, ok := unpackHintPartition("notanumber\x00p"); ok {
		t.Error("unpackHintPartition accepted a non-numeric shard")
	}
}

func TestNeedPull(t *testing.T) {
	cases := []struct {
		local   string
		has     bool
		want    string
		needed  bool
		comment string
	}{
		{"", false, "abc.1", true, "missing partition is always pulled"},
		{"abc.1", true, "abc.1", false, "identical hash: no pull"},
		{"abc.1", true, "def.1", true, "hash mismatch: pull"},
		{"abc.1", true, "", false, "authority has presence-only digest: cannot compare"},
		{"", true, "abc.1", false, "local presence-only: cannot prove staleness"},
	}
	for _, c := range cases {
		if got := needPull(c.local, c.has, c.want); got != c.needed {
			t.Errorf("needPull(%q, %v, %q) = %v, want %v (%s)",
				c.local, c.has, c.want, got, c.needed, c.comment)
		}
	}
}

func TestIdemRegistryLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	ev := reg.Counter("server.idem_evictions")
	r := newIdemRegistry(2, time.Hour, ev)

	resp := func(n int64) IngestResponse { return IngestResponse{Read: n} }
	r.put("a", resp(1))
	r.put("b", resp(2))
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := r.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	r.put("c", resp(3))

	if _, ok := r.get("b"); ok {
		t.Error("b survived: LRU eviction did not pick the least recently used entry")
	}
	if _, ok := r.get("a"); !ok {
		t.Error("a evicted despite being recently used")
	}
	if _, ok := r.get("c"); !ok {
		t.Error("c missing right after put")
	}
	if r.len() != 2 {
		t.Errorf("len = %d, want 2", r.len())
	}
	if got := ev.Value(); got != 1 {
		t.Errorf("server.idem_evictions = %d, want 1", got)
	}

	// Updating an existing key must not evict anything.
	r.put("a", resp(9))
	if r.len() != 2 || ev.Value() != 1 {
		t.Errorf("update-in-place changed len/evictions: len=%d evictions=%d", r.len(), ev.Value())
	}
	if got, _ := r.get("a"); got.Read != 9 {
		t.Errorf("update-in-place did not refresh the response: %+v", got)
	}
}

func TestIdemRegistryTTL(t *testing.T) {
	reg := obs.NewRegistry()
	ev := reg.Counter("server.idem_evictions")
	r := newIdemRegistry(8, 5*time.Millisecond, ev)
	r.put("k", IngestResponse{Read: 1})
	if _, ok := r.get("k"); !ok {
		t.Fatal("entry missing before TTL")
	}
	time.Sleep(15 * time.Millisecond)
	if _, ok := r.get("k"); ok {
		t.Error("entry survived past the TTL")
	}
	if got := ev.Value(); got != 1 {
		t.Errorf("server.idem_evictions = %d, want 1 (lazy expiry counts)", got)
	}
	if r.len() != 0 {
		t.Errorf("len = %d after lazy expiry, want 0", r.len())
	}
}

// ---------------------------------------------------------------------------
// End-to-end: kill a replica, ingest through the survivors, restart it, and
// watch digests + hinted handoff converge the cluster back to full coverage.
// ---------------------------------------------------------------------------

// repairCluster is an in-process cluster whose shards can be killed and
// restarted on the same address. Unlike testCluster it keeps each shard's
// MemStore across restarts (the store plays the role of the surviving disk)
// and reopens the warehouse from its persisted manifest, so a restart
// exercises the same recovery path a real process restart would.
type repairCluster struct {
	t       *testing.T
	addrs   []string // http://127.0.0.1:port, fixed for the cluster lifetime
	stores  []*storage.MemStore[int64]
	lns     []net.Listener
	whs     []*warehouse.Warehouse[int64]
	servers []*Server
	https   []*http.Server
	clients []*Client
	seeds   []uint64
	repl    int
	quorum  int
	down    []bool
}

func newRepairCluster(t *testing.T, n, replication, writeQuorum int) *repairCluster {
	t.Helper()
	rc := &repairCluster{
		t:       t,
		repl:    replication,
		quorum:  writeQuorum,
		stores:  make([]*storage.MemStore[int64], n),
		lns:     make([]net.Listener, n),
		whs:     make([]*warehouse.Warehouse[int64], n),
		servers: make([]*Server, n),
		https:   make([]*http.Server, n),
		seeds:   make([]uint64, n),
		down:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen shard %d: %v", i, err)
		}
		rc.lns[i] = ln
		rc.addrs = append(rc.addrs, "http://"+ln.Addr().String())
		rc.stores[i] = storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
		rc.seeds[i] = uint64(9000 + i)
	}
	for i := 0; i < n; i++ {
		rc.start(i)
		rc.clients = append(rc.clients, NewClient(rc.addrs[i], nil).SetRetryPolicy(NoRetry()))
	}
	t.Cleanup(func() {
		for i := range rc.https {
			if !rc.down[i] {
				rc.https[i].Close()
				rc.servers[i].StopRepair()
			}
		}
	})
	return rc
}

// start builds shard i's warehouse/server over its persistent store and
// serves it on the shard's listener. The warehouse is opened durable, so the
// manifest (partitions, content hashes, sketches) survives restarts.
func (rc *repairCluster) start(i int) {
	rc.t.Helper()
	wh, _, err := warehouse.Open[int64](rc.stores[i], rc.seeds[i])
	if err != nil {
		rc.t.Fatalf("open warehouse shard %d: %v", i, err)
	}
	srv := New(wh, Config{DefaultTimeout: 5 * time.Second, Registry: obs.NewRegistry()})
	err = srv.EnableCluster(ClusterConfig{
		Peers:       rc.addrs,
		ShardID:     i,
		Replication: rc.repl,
		WriteQuorum: rc.quorum,
		// Fast breaker + repair cadence so convergence happens within the
		// test deadline. The breaker must reopen quickly after the shard
		// rejoins or hint replay would stall on the OpenFor window.
		Breaker:            BreakerConfig{Window: 4, MinSamples: 2, OpenFor: 100 * time.Millisecond},
		HedgeDisabled:      true,
		RepairInterval:     150 * time.Millisecond,
		HintReplayInterval: 50 * time.Millisecond,
	})
	if err != nil {
		rc.t.Fatalf("enable cluster shard %d: %v", i, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(rc.lns[i])
	rc.whs[i], rc.servers[i], rc.https[i] = wh, srv, hs
}

// kill closes shard i's listener and connections and stops its background
// repair, in-process SIGKILL style. The store keeps the shard's durable
// state for the restart.
func (rc *repairCluster) kill(i int) {
	rc.t.Helper()
	rc.down[i] = true
	rc.https[i].Close()
	rc.servers[i].StopRepair()
}

// restart rebinds shard i's original address and brings up a fresh
// server over the surviving store.
func (rc *repairCluster) restart(i int) {
	rc.t.Helper()
	hostport := strings.TrimPrefix(rc.addrs[i], "http://")
	var (
		ln  net.Listener
		err error
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", hostport)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			rc.t.Fatalf("rebind shard %d on %s: %v", i, hostport, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rc.lns[i] = ln
	rc.start(i)
	rc.down[i] = false
}

func (rc *repairCluster) chainOf(ds, part string) []int {
	return rc.servers[0].cluster.place.Replicas(placementKey(ds, part))
}

func TestClusterRejoinConvergence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rc := newRepairCluster(t, 3, 2, 1)

	// "d" keeps every row (NF 4096 > 50 rows per partition), so its sums are
	// exact. "s" samples 16 of each partition's 50 rows, so only a replica
	// sampled under the partition's own seed matches the reference below.
	const per = 50
	sampledReq := CreateDatasetRequest{Name: "s", NF: 16}
	for _, req := range []CreateDatasetRequest{{Name: "d", NF: 4096}, sampledReq} {
		if _, err := rc.clients[0].CreateDataset(ctx, req); err != nil {
			t.Fatalf("create dataset %s: %v", req.Name, err)
		}
	}

	// The never-failed reference: one in-process warehouse fed the same
	// batches of "s". Samplers are partition-seeded, so a healthy cluster
	// stores exactly these bytes for every partition.
	ref := warehouse.New[int64](storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{}), 1)
	refCfg, err := DatasetConfig(sampledReq)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.CreateDataset("s", refCfg); err != nil {
		t.Fatal(err)
	}

	// Phase 1: everything healthy; ingest a first wave through all shards.
	var parts []string
	ingest := func(coord int, part string, lo int64) {
		t.Helper()
		vals := seqValues(lo, per)
		var b strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&b, "%d\n", v)
		}
		key := "batch-" + part
		for _, ds := range []string{"d", "s"} {
			resp, err := rc.clients[coord].IngestKeyed(ctx, ds, part, 0, key, strings.NewReader(b.String()))
			if err != nil {
				t.Fatalf("ingest %s/%s via shard %d: %v", ds, part, coord, err)
			}
			if resp.Read != per {
				t.Fatalf("ingest %s/%s: read %d, want %d", ds, part, resp.Read, per)
			}
		}
		smp, err := ref.NewPartitionSampler("s", part, 0)
		if err != nil {
			t.Fatal(err)
		}
		core.FeedAll(smp, vals)
		s, err := smp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.RollIn("s", part, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("p%02d", i)
		parts = append(parts, p)
		ingest(i%3, p, int64(i*per))
	}

	// Phase 2: kill shard 2 and ingest a second wave through the survivors.
	// Writes whose chain includes shard 2 succeed at quorum 1 and queue
	// hints on the coordinator.
	const down = 2
	rc.kill(down)
	healed := map[string][]string{} // data set → second-wave partitions placed on the dead shard
	for i := 6; i < 12; i++ {
		p := fmt.Sprintf("p%02d", i)
		parts = append(parts, p)
		for _, ds := range []string{"d", "s"} {
			if slices.Contains(rc.chainOf(ds, p), down) {
				healed[ds] = append(healed[ds], p)
			}
		}
		ingest(i%2, p, int64(i*per)) // coordinators 0 and 1 only
	}
	if len(healed["d"]) == 0 || len(healed["s"]) == 0 {
		t.Fatalf("second-wave partitions on shard %d: %v; test would prove nothing", down, healed)
	}
	hintsQueued := rc.servers[0].PendingHints() + rc.servers[1].PendingHints()
	if hintsQueued == 0 {
		t.Fatal("no hints queued on the surviving coordinators for writes missing the dead replica")
	}

	// A strict query must fail (or degrade) while a replica set is short.
	// With replication 2 the surviving chain member still answers, so the
	// strict query may succeed — only assert it recovers fully below.

	// Phase 3: restart the shard and wait for convergence: every chain
	// member holds every owned partition with an identical content hash,
	// and all hints have drained.
	rc.restart(down)

	converged := func() (bool, string) {
		for _, ds := range []string{"d", "s"} {
			for _, p := range parts {
				var want string
				for _, m := range rc.chainOf(ds, p) {
					hs, err := rc.whs[m].PartitionHashes(ds)
					if err != nil {
						return false, fmt.Sprintf("shard %d: %v", m, err)
					}
					h, ok := hs[p]
					if !ok {
						return false, fmt.Sprintf("shard %d missing %s/%s", m, ds, p)
					}
					if want == "" {
						want = h
					} else if h != want {
						return false, fmt.Sprintf("%s/%s hash mismatch: shard %d has %s, chain head has %s", ds, p, m, h, want)
					}
				}
			}
		}
		for i, srv := range rc.servers {
			if n := srv.PendingHints(); n > 0 {
				return false, fmt.Sprintf("shard %d still has %d pending hints", i, n)
			}
		}
		return true, ""
	}
	deadline := time.Now().Add(30 * time.Second)
	var why string
	for {
		var ok bool
		if ok, why = converged(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: %s", why)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Phase 4: strict (non-degraded) full-coverage query through every
	// coordinator, including the rejoined shard.
	var wantSum int64
	for i := 0; i < 12; i++ {
		for _, v := range seqValues(int64(i*per), per) {
			wantSum += v
		}
	}
	for i := range rc.clients {
		est, err := rc.clients[i].Estimate(ctx, "d", "sum", QueryOpts{Strict: true})
		if err != nil {
			t.Fatalf("strict estimate via shard %d after convergence: %v", i, err)
		}
		if est.Degraded || est.Coverage.Partial {
			t.Fatalf("strict estimate via shard %d still degraded: %+v", i, est.Coverage)
		}
		if est.Estimate == nil {
			t.Fatalf("strict estimate via shard %d: no estimate", i)
		}
		// NF 4096 > total rows, so the "sample" is exhaustive and the sum
		// estimate is exact — any divergence means repair corrupted data.
		if got := int64(est.Estimate.Value + 0.5); got != wantSum {
			t.Fatalf("sum via shard %d = %d, want %d", i, got, wantSum)
		}
	}

	// Phase 5: byte-identical replicas. For each second-wave partition on
	// the rejoined shard, the local sample values must match the survivor's
	// exactly — repair transfers stored bytes, it does not re-sample.
	for _, p := range healed["d"] {
		chain := rc.chainOf("d", p)
		var samples [][]ValueCount
		for _, m := range chain {
			got, err := rc.clients[m].Sample(ctx, "d", QueryOpts{Parts: []string{p}, Local: true})
			if err != nil {
				t.Fatalf("local sample of %s on shard %d: %v", p, m, err)
			}
			samples = append(samples, got.Values)
		}
		for _, s := range samples[1:] {
			if !reflect.DeepEqual(samples[0], s) {
				t.Fatalf("replicas of %s diverge after repair:\n%v\nvs\n%v", p, samples[0], s)
			}
		}
	}

	// Phase 6: healed equals never failed. Exhaustive samples of "d" compare
	// equal under any seed; each healed replica of "s" must hold the bytes
	// the reference stored for the same rows.
	want, err := ref.PartitionHashes("s")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range healed["s"] {
		if want[p] == "" {
			t.Fatalf("reference holds no content hash for s/%s", p)
		}
		for _, m := range rc.chainOf("s", p) {
			hs, err := rc.whs[m].PartitionHashes("s")
			if err != nil {
				t.Fatal(err)
			}
			if hs[p] != want[p] {
				t.Fatalf("s/%s on shard %d hashes %s, the never-failed reference %s", p, m, hs[p], want[p])
			}
		}
	}

	// Repair status must be visible on /clusterz.
	st, err := rc.clients[down].ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	if st.Repair == nil {
		t.Fatal("cluster status missing repair section with repair enabled")
	}
	if st.Repair.HintsPending != 0 {
		t.Fatalf("clusterz reports %d pending hints after convergence", st.Repair.HintsPending)
	}
}

// TestClusterSweepPullsMissingPartition exercises the anti-entropy pull
// path in isolation: a partition vanishes from one replica with no hint
// anywhere (a local roll-out behind the coordinator's back — the in-process
// stand-in for losing a disk), and the digest sweep must restore it from
// the surviving chain member with an identical content hash.
func TestClusterSweepPullsMissingPartition(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rc := newRepairCluster(t, 3, 2, 1)

	if _, err := rc.clients[0].CreateDataset(ctx, CreateDatasetRequest{Name: "d", NF: 4096}); err != nil {
		t.Fatalf("create dataset: %v", err)
	}
	const part = "sp00"
	if _, err := rc.clients[0].IngestValues(ctx, "d", part, 0, seqValues(0, 80)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	chain := rc.chainOf("d", part)
	victim, survivor := chain[len(chain)-1], chain[0]
	if victim == survivor {
		t.Fatalf("replication did not spread %s across shards: chain %v", part, chain)
	}
	wantHashes, err := rc.whs[survivor].PartitionHashes("d")
	if err != nil || wantHashes[part] == "" {
		t.Fatalf("survivor has no hash for %s: %v", part, err)
	}

	// Lose the replica's copy without any hint being queued.
	if err := rc.whs[victim].RollOut("d", part); err != nil {
		t.Fatalf("local roll out: %v", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		hs, err := rc.whs[victim].PartitionHashes("d")
		if err == nil && hs[part] == wantHashes[part] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never restored %s on shard %d (have %q, want %q)",
				part, victim, hs[part], wantHashes[part])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestClusterRollOutTombstoneHint verifies that a roll-out issued while a
// replica is down does not resurrect: the coordinator queues a tombstone
// hint, replays it on rejoin, and the sweep does not pull the partition
// back from the shard that missed the delete.
func TestClusterRollOutTombstoneHint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rc := newRepairCluster(t, 3, 2, 1)

	if _, err := rc.clients[0].CreateDataset(ctx, CreateDatasetRequest{Name: "d", NF: 4096}); err != nil {
		t.Fatalf("create dataset: %v", err)
	}

	// Find a partition whose chain includes shard 2 plus one survivor.
	const down = 2
	var part string
	for i := 0; ; i++ {
		p := fmt.Sprintf("rp%02d", i)
		for _, m := range rc.chainOf("d", p) {
			if m == down {
				part = p
			}
		}
		if part != "" {
			break
		}
		if i > 256 {
			t.Fatal("no partition placed on shard 2")
		}
	}
	if _, err := rc.clients[0].IngestValues(ctx, "d", part, 0, seqValues(0, 40)); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	rc.kill(down)
	// Roll out while the replica is down: the delete lands on the survivor
	// only; the coordinator must queue a tombstone hint for shard 2.
	if err := rc.clients[0].RollOut(ctx, "d", part); err != nil {
		t.Fatalf("roll out with replica down: %v", err)
	}
	rc.restart(down)

	// Converged state: no shard lists the partition, no hints pending.
	deadline := time.Now().Add(30 * time.Second)
	for {
		gone := true
		for i := range rc.whs {
			hs, err := rc.whs[i].PartitionHashes("d")
			if err == nil {
				if _, ok := hs[part]; ok {
					gone = false
				}
			}
		}
		pending := 0
		for _, srv := range rc.servers {
			pending += srv.PendingHints()
		}
		if gone && pending == 0 {
			// Hold the assertion through one more sweep: a resurrection
			// bug shows up when the rejoined shard's stale copy wins a
			// later digest diff.
			time.Sleep(400 * time.Millisecond)
			stillGone := true
			for i := range rc.whs {
				hs, err := rc.whs[i].PartitionHashes("d")
				if err == nil {
					if _, ok := hs[part]; ok {
						stillGone = false
					}
				}
			}
			if stillGone {
				return
			}
			gone = false
		}
		if time.Now().After(deadline) {
			t.Fatalf("tombstone did not converge: gone=%v pending=%d", gone, pending)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
