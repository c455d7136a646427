// Command swd is the sample-warehouse daemon: it serves a file-backed (or
// in-memory) warehouse over HTTP/JSON with admission control, per-request
// deadlines and graceful drain — the serving layer of the paper's Figure 1
// warehouse, answering approximate queries with confidence intervals and
// explicit merge coverage.
//
// Endpoints (see README.md "Running the server" for a curl walkthrough):
//
//	GET    /healthz                                   liveness (200 while the process runs, boot and drain included)
//	GET    /readyz                                    readiness (503 during WAL boot replay and drain)
//	GET    /clusterz                                  cluster status: peers, breakers, placement (cluster mode)
//	GET    /metricsz                                  metrics snapshot (JSON)
//	GET    /metrics                                   metrics in Prometheus text format
//	GET    /debug/slowlog                             slow-query log with span trees
//	GET    /v1/datasets                               list data sets
//	POST   /v1/datasets                               create a data set
//	GET    /v1/datasets/{ds}                          describe one data set
//	GET    /v1/datasets/{ds}/partitions/{part}        partition sample metadata
//	PUT    /v1/datasets/{ds}/partitions/{part}        roll-in ingest (text values, one per line)
//	DELETE /v1/datasets/{ds}/partitions/{part}        roll-out
//	GET    /v1/datasets/{ds}/sample                   merged sample of a partition subset
//	GET    /v1/datasets/{ds}/estimate                 approximate query with confidence interval
//	GET    /antientropy/digest                        partition inventory digest (cluster self-healing)
//	GET    /antientropy/partition                     raw partition transfer for anti-entropy pulls
//	POST   /antientropy/nudge                         read-repair signal: queue a partition for targeted repair
//
// Usage:
//
//	swd -dir /var/lib/swd -addr :8385
//	swd -mem -addr 127.0.0.1:8385 -cache 134217728
//
// In -dir mode every acknowledged ingest batch is first sealed, fsynced, in
// the write-ahead journal DIR/wal. swd -h lists the flags; every other
// setting is a constant, stated in README.md "Running the server".
//
// Cluster mode (see README.md "Running a cluster"): give every node the
// same -peers list and its own -shard-id, and each node both owns its
// placement share of partitions and coordinates any request it receives —
// scattering queries across the shards, replicating ingest -replication
// ways, hedging slow shards and answering degraded (with explicit coverage)
// when shards are down:
//
//	swd -mem -addr 127.0.0.1:8401 -peers http://127.0.0.1:8401,http://127.0.0.1:8402 -shard-id 0 -replication 2
//	swd -mem -addr 127.0.0.1:8402 -peers http://127.0.0.1:8401,http://127.0.0.1:8402 -shard-id 1 -replication 2
//
// SIGTERM or SIGINT begins graceful drain: readiness starts failing, the
// listener closes, in-flight requests run to completion (for at most 15 s),
// and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// config is swd's command line.
type config struct {
	addr, dir, peers, hintsDir                string
	mem                                       bool
	cacheBytes                                int64
	shardID, replication, writeQuorum         int
	timeout, slowlogThreshold                 time.Duration
	hedgeInitial, breakerOpen, repairInterval time.Duration
}

// defineFlags declares swd's flags on fs: deployment settings, and the knobs
// a drill or test sets. Every other setting is a constant (README "Running
// the server"); main_test.go holds this set and README to each other.
func defineFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8385", "listen address")
	fs.StringVar(&c.dir, "dir", "", "warehouse directory (file-backed, durable catalog, write-ahead journal)")
	fs.BoolVar(&c.mem, "mem", false, "serve an ephemeral in-memory warehouse instead of -dir")
	fs.Int64Var(&c.cacheBytes, "cache", 64<<20, "decoded-sample cache budget in bytes (0 disables)")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Second, "default per-request deadline")
	fs.DurationVar(&c.slowlogThreshold, "slowlog-threshold", 500*time.Millisecond, "record requests slower than this in the slow-query log (negative disables)")

	fs.StringVar(&c.peers, "peers", "", "cluster mode: comma-separated peer base URLs, self included (index = shard id)")
	fs.IntVar(&c.shardID, "shard-id", 0, "this node's index into -peers")
	fs.IntVar(&c.replication, "replication", 1, "replicas per partition (ingest fan-out, query failover width)")
	fs.IntVar(&c.writeQuorum, "write-quorum", 0, "replica acks required before an ingest is acknowledged, at most -replication (0 = majority)")
	fs.DurationVar(&c.hedgeInitial, "hedge-initial", 50*time.Millisecond, "hedge delay before a peer has latency history")
	fs.DurationVar(&c.breakerOpen, "breaker-open", 2*time.Second, "how long an open per-peer circuit breaker rejects before probing")
	fs.DurationVar(&c.repairInterval, "repair-interval", 30*time.Second, "anti-entropy sweep period; 0 disables self-healing repair (cluster mode)")
	fs.StringVar(&c.hintsDir, "hints-dir", "", "hinted-handoff journal directory (default <dir>/hints in -dir cluster mode; empty in -mem mode keeps hints in memory)")
	return c
}

const (
	// seed is the base seed of the warehouse's merge randomness.
	seed = 0x535744
	// drainTimeout bounds how long in-flight requests may run after SIGTERM.
	drainTimeout = 15 * time.Second
)

func main() {
	c := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "swd: %v\n", err)
		os.Exit(1)
	}
}

// logf writes one timestamped operational log line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s swd: %s\n", time.Now().Format(time.RFC3339), fmt.Sprintf(format, args...))
}

func run(c *config) error {
	if (c.dir == "") == !c.mem {
		return errors.New("exactly one of -dir or -mem is required")
	}
	reg := obs.NewRegistry()

	// Build the warehouse over a file store (catalog reconciled on open) or
	// an in-memory one, which keeps the same bytes and catalog until exit.
	var st storage.Store[int64]
	if c.mem {
		st = storage.NewMemStore[int64](storage.Int64Codec{})
	} else {
		fst, err := storage.NewFileStore[int64](c.dir, storage.Int64Codec{})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		st = fst
	}
	st.Instrument(reg)
	wh, report, err := warehouse.Open[int64](st, seed)
	if err != nil {
		return fmt.Errorf("open warehouse: %w", err)
	}
	if !report.Clean() {
		logf("recovery: %s", report)
	}
	wh.Instrument(reg)
	wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: c.cacheBytes})

	// Write-ahead ingest journal (file-backed mode only): open it now (so
	// the server journals new ingest from the first request), but defer the
	// replay of recovered batches until after the listener is up — the node
	// answers /healthz (liveness) and 503s serving routes while it boots,
	// and flips /readyz once the replayed state is consistent.
	var journal *wal.Log[int64]
	var recovered []wal.RecoveredEntry[int64]
	if !c.mem {
		journal, recovered, err = wal.Open[int64](filepath.Join(c.dir, "wal"), storage.Int64Codec{}, wal.Options{Registry: reg})
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		defer func() {
			if err := journal.Close(); err != nil {
				logf("journal close: %v", err)
			}
		}()
	}

	srv := server.New(wh, server.Config{
		DefaultTimeout:   c.timeout,
		SlowLogThreshold: c.slowlogThreshold,
		Journal:          journal,
		Registry:         reg,
	})
	if c.peers != "" {
		cluster := server.ClusterConfig{
			Peers:          strings.Split(c.peers, ","),
			ShardID:        c.shardID,
			Replication:    c.replication,
			WriteQuorum:    c.writeQuorum,
			HedgeInitial:   c.hedgeInitial,
			BreakerOpen:    c.breakerOpen,
			RepairInterval: c.repairInterval,
		}
		for i := range cluster.Peers {
			cluster.Peers[i] = strings.TrimSpace(cluster.Peers[i])
		}
		// Hinted-handoff journal (repair enabled): a dedicated WAL whose
		// entries are undelivered replica writes, so hints survive the
		// coordinator crashing too. -mem nodes without -hints-dir keep hints
		// in memory only (the anti-entropy sweep is the backstop).
		var hintsRecovered []wal.RecoveredEntry[int64]
		hdir := c.hintsDir
		if hdir == "" && !c.mem {
			hdir = filepath.Join(c.dir, "hints")
		}
		if c.repairInterval > 0 && hdir != "" {
			hints, rec, err := wal.Open[int64](hdir, storage.Int64Codec{}, wal.Options{Registry: reg})
			if err != nil {
				return fmt.Errorf("open hints journal: %w", err)
			}
			defer func() {
				if err := hints.Close(); err != nil {
					logf("hints journal close: %v", err)
				}
			}()
			cluster.Hints, hintsRecovered = hints, rec
		}
		if err := srv.EnableCluster(cluster); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		// Stop the repair goroutines before the deferred journals close
		// (defers run LIFO, so this fires first on the way out).
		defer srv.StopRepair()
		if len(hintsRecovered) > 0 {
			srv.SeedHints(hintsRecovered)
			logf("hints journal: %d undelivered hints recovered", len(hintsRecovered))
		}
		logf("cluster mode: shard %d of %d, replication %d, repair interval %s",
			cluster.ShardID, len(cluster.Peers), cluster.Replication, cluster.RepairInterval)
	}
	srv.SetReady(false)

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slow-loris protection; request bodies are separately deadline-bound
		// by the handler contexts.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful drain: SIGTERM/SIGINT → readiness fails, listener closes,
	// in-flight requests complete (bounded by drainTimeout). A second
	// signal aborts immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logf("listening on http://%s (datasets=%d)", ln.Addr(), len(wh.Datasets()))

	// Boot: replay recovered journal batches into their partitions so every
	// acknowledged batch survives even a kill -9, then open readiness.
	if len(recovered) > 0 {
		rep, err := wh.ReplayJournal(journal, recovered)
		if err != nil {
			return fmt.Errorf("replay journal: %w", err)
		}
		logf("journal replay: %d batches rebuilt, %d orphaned", len(rep.Replayed), rep.Orphaned)
		srv.SeedIdempotency(rep.Replayed)
	}
	srv.SetReady(true)
	logf("ready")

	select {
	case sig := <-sigCh:
		logf("received %s, draining (timeout %s)", sig, drainTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		go func() {
			<-sigCh
			logf("second signal, aborting drain")
			cancel()
		}()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		srv.FinishDrain()
		logf("drained cleanly (%d requests served)", srv.Served())
		return nil
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	}
}
