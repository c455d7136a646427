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
//	swd -mem -addr 127.0.0.1:8385 -cache 128MiB... (flags below)
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
// listener closes, in-flight requests run to completion (bounded by
// -drain-timeout), and the process exits 0.
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

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8385", "listen address")
		dir          = flag.String("dir", "", "warehouse directory (file-backed, durable catalog)")
		mem          = flag.Bool("mem", false, "serve an ephemeral in-memory warehouse instead of -dir")
		seed         = flag.Uint64("seed", 0x535744, "base RNG seed for merge randomness")
		cacheBytes   = flag.Int64("cache", 64<<20, "decoded-sample cache budget in bytes (0 disables)")
		loadWorkers  = flag.Int("load-workers", 0, "partition-load workers per merge (0 = 4×GOMAXPROCS)")
		mergeWorkers = flag.Int("merge-workers", 0, "parallel merge workers (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "ceiling for client-requested ?timeout=")
		queryLimit   = flag.Int("query-limit", 0, "concurrent merge/estimate requests (0 = GOMAXPROCS)")
		ingestLimit  = flag.Int("ingest-limit", 4, "concurrent ingest requests")
		readLimit    = flag.Int("read-limit", 64, "concurrent introspection requests")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue depth per class (0 = 2×limit)")
		queueWait    = flag.Duration("queue-wait", 100*time.Millisecond, "max queued time before a request is shed")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
		events       = flag.Int("events", 256, "trace-event ring buffer size (0 disables tracing)")
		slowlogThr   = flag.Duration("slowlog-threshold", 500*time.Millisecond, "record requests slower than this in the slow-query log (negative disables)")
		slowlogSize  = flag.Int("slowlog-size", 64, "slow-query log ring size")
		walOn        = flag.Bool("wal", true, "write-ahead ingest journal (crash-durable acks; -dir mode only)")
		walSync      = flag.String("wal-sync", "always", "journal fsync policy: always | interval | off")
		walInterval  = flag.Duration("wal-sync-interval", 100*time.Millisecond, "journal fsync period under -wal-sync=interval")
		walSegment   = flag.Int64("wal-segment", 64<<20, "journal segment roll threshold in bytes")

		peers        = flag.String("peers", "", "cluster mode: comma-separated peer base URLs, self included (index = shard id)")
		shardID      = flag.Int("shard-id", 0, "this node's index into -peers")
		replication  = flag.Int("replication", 1, "replicas per partition (ingest fan-out, query failover width)")
		writeQuorum  = flag.Int("write-quorum", 0, "replica acks required before an ingest is acknowledged (0 = majority)")
		hedgeOff     = flag.Bool("no-hedge", false, "disable hedged (duplicate) requests to replicas")
		hedgeInitial = flag.Duration("hedge-initial", 50*time.Millisecond, "hedge delay before a peer has latency history")
		breakerOpen  = flag.Duration("breaker-open", 2*time.Second, "how long an open per-peer circuit breaker rejects before probing")

		repairEvery = flag.Duration("repair-interval", 30*time.Second, "anti-entropy sweep period; 0 disables self-healing repair (cluster mode)")
		hintsDir    = flag.String("hints-dir", "", "hinted-handoff journal directory (default <dir>/hints in -dir cluster mode; empty in -mem mode keeps hints in memory)")
	)
	flag.Parse()

	walPolicy, err := wal.ParsePolicy(*walSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swd: %v\n", err)
		os.Exit(1)
	}
	var cluster *server.ClusterConfig
	if *peers != "" {
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		cluster = &server.ClusterConfig{
			Peers:          list,
			ShardID:        *shardID,
			Replication:    *replication,
			WriteQuorum:    *writeQuorum,
			HedgeDisabled:  *hedgeOff,
			HedgeInitial:   *hedgeInitial,
			Breaker:        server.BreakerConfig{OpenFor: *breakerOpen},
			Seed:           *seed,
			RepairInterval: *repairEvery,
		}
	}
	if err := run(*addr, *dir, *mem, *seed, serverOpts{
		cluster:    cluster,
		cacheBytes: *cacheBytes, loadWorkers: *loadWorkers, mergeWorkers: *mergeWorkers,
		cfg: server.Config{
			DefaultTimeout:   *timeout,
			MaxTimeout:       *maxTimeout,
			QueryLimit:       *queryLimit,
			IngestLimit:      *ingestLimit,
			ReadLimit:        *readLimit,
			QueueDepth:       *queueDepth,
			QueueWait:        *queueWait,
			SlowLogThreshold: *slowlogThr,
			SlowLogSize:      *slowlogSize,
		},
		drainTimeout: *drainTimeout,
		events:       *events,
		wal:          *walOn,
		walOpts:      wal.Options{Policy: walPolicy, Interval: *walInterval, SegmentBytes: *walSegment},
		hintsDir:     *hintsDir,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "swd: %v\n", err)
		os.Exit(1)
	}
}

type serverOpts struct {
	cacheBytes   int64
	loadWorkers  int
	mergeWorkers int
	cfg          server.Config
	drainTimeout time.Duration
	events       int
	wal          bool
	walOpts      wal.Options
	cluster      *server.ClusterConfig
	hintsDir     string
}

// logf writes one timestamped operational log line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s swd: %s\n", time.Now().Format(time.RFC3339), fmt.Sprintf(format, args...))
}

func run(addr, dir string, mem bool, seed uint64, opts serverOpts) error {
	if (dir == "") == !mem {
		return errors.New("exactly one of -dir or -mem is required")
	}

	reg := obs.NewRegistry()
	var sink *obs.MemorySink
	if opts.events > 0 {
		sink = obs.NewMemorySink(opts.events)
		reg.SetSink(sink)
	}

	// Build the warehouse: durable file-backed catalog (reconciled on open)
	// or an ephemeral in-memory one.
	var wh *warehouse.Warehouse[int64]
	if mem {
		// The codec enables the raw-bytes interface anti-entropy hashes and
		// transfers are built on, so -mem cluster nodes repair too.
		st := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
		st.Instrument(reg)
		w, report, err := warehouse.Open[int64](st, seed)
		if err != nil {
			return fmt.Errorf("open in-memory warehouse: %w", err)
		}
		if !report.Clean() {
			logf("recovery: %s", report)
		}
		wh = w
	} else {
		st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		st.Instrument(reg)
		w, report, err := warehouse.Open[int64](st, seed)
		if err != nil {
			return fmt.Errorf("open warehouse: %w", err)
		}
		if !report.Clean() {
			logf("recovery: %s", report)
		}
		wh = w
	}
	wh.Instrument(reg)
	wh.SetQueryConfig(warehouse.QueryConfig{
		CacheBytes:   opts.cacheBytes,
		LoadWorkers:  opts.loadWorkers,
		MergeWorkers: opts.mergeWorkers,
	})

	// Write-ahead ingest journal (file-backed mode only): open it now (so
	// the server journals new ingest from the first request), but defer the
	// replay of recovered batches until after the listener is up — the node
	// answers /healthz (liveness) and 503s serving routes while it boots,
	// and flips /readyz once the replayed state is consistent.
	var journal *wal.Log[int64]
	var recovered []wal.RecoveredEntry[int64]
	if opts.wal && !mem {
		opts.walOpts.Registry = reg
		lg, rec, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{}, opts.walOpts)
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		journal, recovered = lg, rec
		defer func() {
			if err := journal.Close(); err != nil {
				logf("journal close: %v", err)
			}
		}()
	}

	// Hinted-handoff journal (cluster mode with repair enabled): a dedicated
	// WAL whose entries are undelivered replica writes, so hints survive the
	// coordinator crashing too. -mem nodes without -hints-dir keep hints in
	// memory only (the anti-entropy sweep is the backstop).
	var hintsLog *wal.Log[int64]
	var hintsRecovered []wal.RecoveredEntry[int64]
	if opts.cluster != nil && opts.cluster.RepairInterval > 0 {
		hdir := opts.hintsDir
		if hdir == "" && !mem {
			hdir = filepath.Join(dir, "hints")
		}
		if hdir != "" {
			hOpts := opts.walOpts
			hOpts.Registry = reg
			lg, rec, err := wal.Open[int64](hdir, storage.Int64Codec{}, hOpts)
			if err != nil {
				return fmt.Errorf("open hints journal: %w", err)
			}
			hintsLog, hintsRecovered = lg, rec
			defer func() {
				if err := hintsLog.Close(); err != nil {
					logf("hints journal close: %v", err)
				}
			}()
			opts.cluster.Hints = hintsLog
		}
	}

	opts.cfg.Registry = reg
	opts.cfg.Journal = journal
	srv := server.New(wh, opts.cfg)
	if opts.cluster != nil {
		if err := srv.EnableCluster(*opts.cluster); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		// Stop the repair goroutines before the deferred journal closes
		// (defers run LIFO, so this fires first on the way out).
		defer srv.StopRepair()
		if len(hintsRecovered) > 0 {
			srv.SeedHints(hintsRecovered)
			logf("hints journal: %d undelivered hints recovered", len(hintsRecovered))
		}
		logf("cluster mode: shard %d of %d, replication %d, repair interval %s",
			opts.cluster.ShardID, len(opts.cluster.Peers), opts.cluster.Replication,
			opts.cluster.RepairInterval)
	}
	srv.SetReady(false)

	ln, err := net.Listen("tcp", addr)
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
		logf("received %s, draining (timeout %s)", sig, opts.drainTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
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
