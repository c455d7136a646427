package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
)

// ChaosConfig parameterizes the crash-recovery drill.
type ChaosConfig struct {
	SwdPath string        // path to a built swd binary (required)
	Cycles  int           // SIGKILL/restart cycles (default 20)
	Workers int           // concurrent ingest workers (default 4)
	Batch   int           // values per partition batch (default 2000, rounded up to a multiple of 1000)
	Uptime  time.Duration // how long each incarnation lives before the kill (default 150ms)
}

func (c ChaosConfig) normalized() ChaosConfig {
	if c.Cycles <= 0 {
		c.Cycles = 20
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Batch < 1000 {
		c.Batch = 2000
	}
	c.Batch -= c.Batch % 1000 // whole cycles of 0..999 keep the true mean at exactly 499.5
	if c.Uptime <= 0 {
		c.Uptime = 150 * time.Millisecond
	}
	return c
}

// Chaos is the durability drill for the ingest journal (DESIGN.md §11): it
// boots a real swd process on a throwaway warehouse, drives concurrent
// keyed ingest through real HTTP clients, and SIGKILLs the daemon mid-flight
// over and over. Workers treat every failure as ambiguous and retry the same
// batch under the same Idempotency-Key until it is acknowledged — the
// client's own recovery protocol. After the last kill the surviving
// warehouse must hold every acknowledged batch exactly once (exact parent
// sizes — a lost batch or a double-count both change them) and answer
// estimates whose confidence interval covers the known true mean.
func Chaos(cfg ChaosConfig, opt Options) (*Report, error) {
	cfg = cfg.normalized()
	opt = opt.normalized()
	if cfg.SwdPath == "" {
		return nil, fmt.Errorf("chaos: -swd PATH (a built swd binary) is required")
	}
	dir, err := os.MkdirTemp("", "swd-chaos-")
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer os.RemoveAll(dir)

	proc, err := startSwd(cfg.SwdPath, dir)
	if err != nil {
		return nil, err
	}
	defer func() { proc.kill() }() // the incarnation alive at return, not the first

	ctx := context.Background()
	var base atomic.Value // current base URL; replaced on every restart
	base.Store(proc.base)
	if _, err := server.NewClient(proc.base, nil).CreateDataset(ctx, server.CreateDatasetRequest{
		Name: "chaos", Algorithm: "HR", NF: opt.NF,
	}); err != nil {
		return nil, fmt.Errorf("chaos: create dataset: %w", err)
	}

	// Ingest workers: claim partition numbers from a shared counter and
	// retry each batch — same partition, same key — through kills and
	// restarts until the server acknowledges it. Only acknowledged
	// partitions enter the verification set.
	var (
		next      atomic.Int64
		retried   atomic.Int64 // attempts that followed a failed one
		stop      = make(chan struct{})
		ackedMu   sync.Mutex
		acked     []string
		wg        sync.WaitGroup
		workerErr = make(chan error, cfg.Workers)
	)
	deadline := time.Now().Add(2*time.Minute + time.Duration(cfg.Cycles)*2*cfg.Uptime)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				part := fmt.Sprintf("p%d", next.Add(1))
				key := "chaos-" + part
				var vals strings.Builder
				for j := 0; j < cfg.Batch; j++ {
					fmt.Fprintln(&vals, j%1000)
				}
				for attempt := 0; ; attempt++ {
					if attempt > 0 {
						retried.Add(1)
						time.Sleep(25 * time.Millisecond)
					}
					if time.Now().After(deadline) {
						workerErr <- fmt.Errorf("chaos: %s never acknowledged", part)
						return
					}
					cl := server.NewClient(base.Load().(string), nil).SetRetryPolicy(server.NoRetry())
					rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
					_, err := cl.IngestKeyed(rctx, "chaos", part, int64(cfg.Batch), key, strings.NewReader(vals.String()))
					cancel()
					if err == nil {
						break
					}
					// Every failure is ambiguous (the batch may or may not
					// have landed); the idempotency key makes blind retry safe.
				}
				ackedMu.Lock()
				acked = append(acked, part)
				ackedMu.Unlock()
			}
		}()
	}

	// The kill loop: let each incarnation take traffic briefly, then
	// SIGKILL — no drain, no journal close — and restart on the same
	// directory. Ingests are in flight at every kill.
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		time.Sleep(cfg.Uptime)
		proc.kill()
		proc, err = startSwd(cfg.SwdPath, dir)
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("chaos: restart after kill %d: %w", cycle+1, err)
		}
		base.Store(proc.base)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-workerErr:
		return nil, err
	default:
	}

	// Verification against the final incarnation (which replayed whatever
	// the last kill stranded).
	if len(acked) == 0 {
		return nil, fmt.Errorf("chaos: no batch was ever acknowledged; the drill proved nothing (uptime too short?)")
	}
	cl := server.NewClient(base.Load().(string), nil)
	for _, part := range acked {
		pi, err := cl.PartitionInfo(ctx, "chaos", part)
		if err != nil {
			return nil, fmt.Errorf("chaos: acknowledged partition %s lost: %w", part, err)
		}
		if pi.ParentSize != int64(cfg.Batch) {
			return nil, fmt.Errorf("chaos: partition %s parent size %d, want exactly %d (lost or duplicated batch)",
				part, pi.ParentSize, cfg.Batch)
		}
	}
	est, err := cl.Estimate(ctx, "chaos", "avg", server.QueryOpts{Parts: acked})
	if err != nil {
		return nil, fmt.Errorf("chaos: final estimate: %w", err)
	}
	if got, want := est.Sample.ParentSize, int64(len(acked)*cfg.Batch); got != want {
		return nil, fmt.Errorf("chaos: merged parent size %d, want %d", got, want)
	}
	// True mean is exactly 499.5 by construction. The CI is a random
	// interval, so allow one extra width of slack on each side to keep the
	// drill deterministic-in-practice.
	const trueMean = 499.5
	slack := est.Estimate.Hi - est.Estimate.Lo
	if trueMean < est.Estimate.Lo-slack || trueMean > est.Estimate.Hi+slack {
		return nil, fmt.Errorf("chaos: estimate CI [%g, %g] far from true mean %g",
			est.Estimate.Lo, est.Estimate.Hi, trueMean)
	}

	// Journal replay counters from the final incarnation's registry: how
	// much work recovery actually did across this run's last restart.
	var snap obs.Snapshot
	var replays int64 = -1
	if raw, err := cl.Metrics(ctx); err == nil {
		if jerr := json.Unmarshal(raw, &snap); jerr == nil {
			replays = snap.Counters["wal.replays"]
		}
	}

	r := &Report{
		Title:  "Chaos: SIGKILL crash-recovery drill (journaled ingest, fsync=always)",
		Header: []string{"kills", "workers", "parts_acked", "values_acked", "retried_attempts", "final_replays", "avg_est", "ci_lo", "ci_hi"},
	}
	r.Note("every acknowledged batch verified present exactly once after the final restart")
	r.Add(cfg.Cycles, cfg.Workers, len(acked), len(acked)*cfg.Batch, retried.Load(), replays,
		est.Estimate.Value, est.Estimate.Lo, est.Estimate.Hi)
	return r, nil
}

// swdProc is one incarnation of the daemon under test.
type swdProc struct {
	cmd  *exec.Cmd
	base string
}

// startSwd launches the binary on an ephemeral port (its journal fsyncs
// every acknowledged batch) and waits, 15 s at most, for its "listening on"
// log line and then for /readyz.
func startSwd(path, dir string) (*swdProc, error) {
	cmd := exec.Command(path, "-dir", dir, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("chaos: stderr pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", path, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		close(addrCh) // EOF: the process died
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	select {
	case base, ok := <-addrCh:
		if !ok {
			_ = cmd.Wait()
			return nil, fmt.Errorf("chaos: swd exited before listening (corrupt journal?)")
		}
		// Listening is not ready: /readyz stays 503 while the journal
		// replays, and a POST that meets that is not retried.
		cl := server.NewClient(base, nil).SetRetryPolicy(server.NoRetry())
		for ctx.Err() == nil {
			if cl.ReadyCheck(ctx) == nil {
				return &swdProc{cmd: cmd, base: base}, nil
			}
			time.Sleep(20 * time.Millisecond)
		}
	case <-ctx.Done():
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil, fmt.Errorf("chaos: swd did not come up within 15s")
}

// kill delivers SIGKILL — the crash under test — and reaps the process.
func (p *swdProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}
