package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// ClusterConfig parameterizes the cluster ladder.
type ClusterConfig struct {
	Shards  []int         // shard counts to ladder over (default 1, 2, 4)
	Clients int           // closed-loop query clients per rung (default 8)
	Dur     time.Duration // measurement window per rung (default 2s)
	Parts   int           // partitions ingested per rung (default 24)
	Per     int           // values per partition (default 4096)
}

func (c ClusterConfig) normalized() ClusterConfig {
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4}
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Dur <= 0 {
		c.Dur = 2 * time.Second
	}
	if c.Parts <= 0 {
		c.Parts = 24
	}
	if c.Per <= 0 {
		c.Per = 4096
	}
	return c
}

// testCluster bundles one in-process cluster rung.
type benchCluster struct {
	servers []*server.Server
	https   []*http.Server
	regs    []*obs.Registry
	clients []*server.Client
}

func (bc *benchCluster) close() {
	for _, hs := range bc.https {
		hs.Close()
	}
}

// counter sums the named counter across every live shard's registry.
func (bc *benchCluster) counter(name string) int64 {
	var total int64
	for _, reg := range bc.regs {
		snap := reg.Snapshot()
		total += snap.Counters[name]
	}
	return total
}

// newBenchCluster builds an n-shard in-process cluster (replication capped at
// 2) of real HTTP servers on loopback listeners, the same wiring swd -peers
// produces.
func newBenchCluster(n int, seed uint64) (*benchCluster, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	repl := 2
	if n < 2 {
		repl = 1
	}
	bc := &benchCluster{}
	for i := 0; i < n; i++ {
		reg := obs.NewRegistry()
		wh, _, err := warehouse.Open[int64](storage.NewMemStore[int64](storage.Int64Codec{}), seed+uint64(i))
		if err != nil {
			return nil, err
		}
		wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: 64 << 20})
		// Generous admission limits: a coordinated query holds a local slot
		// while its scatter sub-requests hold slots on every peer, so the
		// effective concurrency is (clients × shards), not clients.
		srv := server.New(wh, server.Config{
			DefaultTimeout: 5 * time.Second,
			QueryLimit:     64,
			QueueDepth:     128,
			QueueWait:      500 * time.Millisecond,
			Registry:       reg,
		})
		if err := srv.EnableCluster(server.ClusterConfig{
			Peers:       addrs,
			ShardID:     i,
			Replication: repl,
			WriteQuorum: 1,
			Breaker:     server.BreakerConfig{Window: 8, MinSamples: 4, OpenFor: 500 * time.Millisecond},
		}); err != nil {
			bc.close()
			return nil, fmt.Errorf("cluster: enable shard %d: %w", i, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func(i int) { _ = hs.Serve(lns[i]) }(i)
		bc.servers = append(bc.servers, srv)
		bc.https = append(bc.https, hs)
		bc.regs = append(bc.regs, reg)
		bc.clients = append(bc.clients, server.NewClient(addrs[i], nil).SetRetryPolicy(server.NoRetry()))
	}
	return bc, nil
}

// Cluster benchmarks the fault-tolerant cluster mode (DESIGN.md §13): for
// each shard count it stands up a real in-process cluster (loopback HTTP,
// replication 2, the same coordinator path swd -peers serves), ingests a
// partitioned data set through the replicated write path, and drives
// closed-loop scatter-gather estimates through every coordinator. The
// largest rung is then re-measured with one shard killed outright: the
// surviving coordinators must keep answering — replication masks the loss,
// so coverage stays complete while failovers and breaker skips absorb the
// dead peer, and no query may fail.
func Cluster(cfg ClusterConfig, opt Options) (*Report, error) {
	cfg = cfg.normalized()
	opt = opt.normalized()
	ctx := context.Background()

	r := &Report{
		Title: "Cluster: replicated scatter-gather under failure",
		Header: []string{"shards", "repl", "state", "reqs", "shed", "qps",
			"p50_us", "p95_us", "p99_us", "hedged", "failovers", "brk_skips", "degraded"},
	}
	r.Note("loopback cluster, replication min(2, shards), write quorum 1; every rung's answers must be error-free")
	r.Note("the '1 down' rung SIGKILLs a shard and re-measures through the survivors")

	for idx, n := range cfg.Shards {
		bc, err := newBenchCluster(n, opt.Seed)
		if err != nil {
			return nil, err
		}
		if _, err := bc.clients[0].CreateDataset(ctx, server.CreateDatasetRequest{
			Name: "cluster", Algorithm: "HR", NF: opt.NF, P: opt.P,
		}); err != nil {
			bc.close()
			return nil, fmt.Errorf("cluster: create dataset: %w", err)
		}
		for i := 0; i < cfg.Parts; i++ {
			vals := make([]int64, cfg.Per)
			for j := range vals {
				vals[j] = int64(j % 1000)
			}
			if _, err := bc.clients[i%n].IngestValues(ctx, "cluster", fmt.Sprintf("p%02d", i), 0, vals); err != nil {
				bc.close()
				return nil, fmt.Errorf("cluster: ingest p%02d: %w", i, err)
			}
		}

		coordinators := bc.clients
		if err := clusterRung(r, bc, coordinators, n, "healthy", cfg); err != nil {
			bc.close()
			return nil, err
		}

		// Kill drill on the final (largest) rung only: close one shard's
		// listener and connections — in-process SIGKILL — and measure again
		// through the survivors.
		if idx == len(cfg.Shards)-1 && n >= 2 {
			bc.https[n-1].Close()
			if err := clusterRung(r, bc, bc.clients[:n-1], n, "1 down", cfg); err != nil {
				bc.close()
				return nil, err
			}
		}
		bc.close()
	}
	return r, nil
}

// clusterRung drives one closed-loop measurement window and appends a row.
func clusterRung(r *Report, bc *benchCluster, coordinators []*server.Client, n int, state string, cfg ClusterConfig) error {
	queries := []string{"avg", "sum", "quantile:0.95"}
	var (
		mu       sync.Mutex
		lats     []time.Duration
		oks      atomic.Int64
		shed     atomic.Int64
		degraded atomic.Int64
	)
	hedged0 := bc.counter("cluster.hedged")
	failover0 := bc.counter("cluster.failovers")
	skips0 := bc.counter("cluster.breaker_skips")

	stop := time.Now().Add(cfg.Dur)
	errCh := make(chan error, cfg.Clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]time.Duration, 0, 1024)
			for i := 0; time.Now().Before(stop); i++ {
				cl := coordinators[(w+i)%len(coordinators)]
				q := queries[(w+i)%len(queries)]
				start := time.Now()
				est, err := cl.Estimate(context.Background(), "cluster", q, server.QueryOpts{})
				el := time.Since(start)
				if server.IsShed(err) {
					shed.Add(1)
					continue
				}
				if err != nil {
					select {
					case errCh <- fmt.Errorf("cluster: %s rung, client %d: %w", state, w, err):
					default:
					}
					return
				}
				oks.Add(1)
				local = append(local, el)
				if est.Degraded {
					degraded.Add(1)
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	repl := 2
	if n < 2 {
		repl = 1
	}
	r.Add(n, repl, state, oks.Load(), shed.Load(), float64(oks.Load())/cfg.Dur.Seconds(),
		quantileUS(lats, 0.50), quantileUS(lats, 0.95), quantileUS(lats, 0.99),
		bc.counter("cluster.hedged")-hedged0,
		bc.counter("cluster.failovers")-failover0,
		bc.counter("cluster.breaker_skips")-skips0,
		degraded.Load())
	return nil
}

// quantileUS returns the q-quantile of sorted durations in microseconds.
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / 1e3
}
