package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

// throttledStore delays every Get so query latency — and therefore admission
// pressure — is deterministic in the saturation and drain phases.
type throttledStore struct {
	storage.Store[int64]
	delay atomic.Int64 // nanoseconds
}

func (s *throttledStore) Get(key string) (*core.Sample[int64], error) {
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return s.Store.Get(key)
}

// bootServer starts a fully wired server on a loopback listener and returns
// a client for it plus the shutdown hooks. The server runs without a sample
// cache, so every merge reads the throttled store. shape, when non-nil, runs
// before the listener serves.
func bootServer(t *testing.T, cfg Config, st storage.Store[int64], shape func(*Server)) (*Client, *Server, *http.Server) {
	t.Helper()
	srv := New(openWarehouse(t, st, 99), cfg)
	if shape != nil {
		shape(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	t.Cleanup(func() { _ = httpSrv.Close() })
	// Retries stay off: the phases below assert exact shed/served counts, so
	// every client-visible outcome must map 1:1 to a server-side attempt.
	return NewClient("http://"+ln.Addr().String(), nil).SetRetryPolicy(NoRetry()), srv, httpSrv
}

// TestServerEndToEnd drives a live server over loopback through its whole
// life: concurrent ingest + queries, saturation with load shedding, and
// graceful drain — the integration criterion of the serving subsystem. Run
// under -race (make test does).
func TestServerEndToEnd(t *testing.T) {
	st := &throttledStore{Store: storage.NewMemStore[int64](storage.Int64Codec{})}
	reg := obs.NewRegistry()
	// Limits far below production's, so this test's load sheds: two query
	// slots, four ingest slots, one queue position each, 20ms waits.
	client, srv, httpSrv := bootServer(t, Config{DefaultTimeout: 5 * time.Second, Registry: reg}, st, func(s *Server) {
		*s.ingest = *testLimiter(4, 1, 20*time.Millisecond)
		*s.query = *testLimiter(2, 1, 20*time.Millisecond)
	})
	ctx := context.Background()

	if _, err := client.CreateDataset(ctx, CreateDatasetRequest{Name: "d", Algorithm: "HR", NF: 512}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: concurrent ingest and queries. 8 writers roll in one partition
	// each (partition i holds values [i*1000, (i+1)*1000)) while readers
	// continuously issue estimates against whatever has landed so far.
	const parts = 8
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	var readerErrs atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				resp, err := client.Estimate(ctx, "d", "avg", QueryOpts{})
				if err != nil {
					// Until the first partition lands there is nothing to
					// merge (404); sheds are legal under contention too.
					var ae *APIError
					if errors.As(err, &ae) && (ae.StatusCode == http.StatusNotFound || ae.StatusCode == http.StatusTooManyRequests) {
						continue
					}
					readerErrs.Add(1)
					t.Errorf("reader: %v", err)
					return
				}
				if resp.Estimate == nil || resp.Estimate.Lo > resp.Estimate.Value || resp.Estimate.Value > resp.Estimate.Hi {
					readerErrs.Add(1)
					t.Errorf("reader: malformed interval %+v", resp.Estimate)
					return
				}
				if len(resp.Coverage.Merged) == 0 {
					readerErrs.Add(1)
					t.Errorf("reader: empty coverage %+v", resp.Coverage)
					return
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for i := 0; i < parts; i++ {
		writerWG.Add(1)
		go func(i int) {
			defer writerWG.Done()
			vals := make([]int64, 1000)
			for j := range vals {
				vals[j] = int64(i*1000 + j)
			}
			// 8 writers against 4 ingest slots + 1 queue position: the excess is
			// legitimately shed with 429, and a shed writer comes back.
			for {
				_, err := client.IngestValues(ctx, "d", part(i), 0, vals)
				if err == nil {
					return
				}
				if !IsShed(err) {
					t.Errorf("ingest %d: %v", i, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	writerWG.Wait()
	close(stopReaders)
	wg.Wait()
	if readerErrs.Load() != 0 {
		t.Fatal("readers failed during concurrent ingest")
	}

	// All partitions landed: a full-coverage estimate must see every value.
	// The coverage assertion below is on a random interval whose draws depend
	// on how the readers above were scheduled, so a 99 % interval would miss
	// one run in a hundred by design: ask for the widest supported confidence
	// and widen it by its own half-width on each side (≈ 5σ in all).
	resp, err := client.Estimate(ctx, "d", "avg", QueryOpts{Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sample.ParentSize != parts*1000 {
		t.Fatalf("parent size %d, want %d", resp.Sample.ParentSize, parts*1000)
	}
	want := float64(parts*1000-1) / 2 // mean of 0..7999
	if hw := (resp.Estimate.Hi - resp.Estimate.Lo) / 2; resp.Estimate.Lo-hw > want || resp.Estimate.Hi+hw < want {
		t.Fatalf("avg interval [%g, %g], widened by its half-width, does not cover %g", resp.Estimate.Lo, resp.Estimate.Hi, want)
	}
	if resp.Coverage.Partial || len(resp.Coverage.Merged) != parts {
		t.Fatalf("coverage %+v", resp.Coverage)
	}

	// Phase 2: saturation. Slow the store so each query pins its slot, then
	// offer far more load than 2 slots + 1 queue position admit: the excess must
	// shed with 429 + Retry-After while admitted requests still succeed.
	st.delay.Store(int64(30 * time.Millisecond))
	// Phase 1's readers and writers were shed too; count this phase only.
	shedBefore := reg.Counter("server.shed").Value()
	const offered = 24
	var ok64, shed64 atomic.Int64
	var satWG sync.WaitGroup
	for i := 0; i < offered; i++ {
		satWG.Add(1)
		go func() {
			defer satWG.Done()
			resp, err := client.Estimate(ctx, "d", "avg", QueryOpts{})
			switch {
			case err == nil:
				ok64.Add(1)
				if resp.Estimate == nil {
					t.Error("saturated success without estimate")
				}
			case IsShed(err):
				shed64.Add(1)
				var ae *APIError
				errors.As(err, &ae)
				if ae.RetryAfter <= 0 {
					t.Errorf("429 without Retry-After: %+v", ae)
				}
			default:
				t.Errorf("saturation: unexpected error %v", err)
			}
		}()
	}
	satWG.Wait()
	st.delay.Store(0)
	if ok64.Load() == 0 {
		t.Fatal("saturation: no request succeeded")
	}
	if shed64.Load() == 0 {
		t.Fatal("saturation: nothing was shed despite offered load >> capacity")
	}
	if got := reg.Counter("server.shed").Value() - shedBefore; got != shed64.Load() {
		t.Fatalf("server.shed rose by %d, clients saw %d sheds", got, shed64.Load())
	}
	t.Logf("saturation: %d ok, %d shed", ok64.Load(), shed64.Load())

	// Phase 3: graceful drain. Launch slow in-flight queries, begin drain,
	// and shut down: every accepted request must complete successfully even
	// though health is already failing.
	st.delay.Store(int64(50 * time.Millisecond))
	inflightResults := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := client.Estimate(ctx, "d", "avg", QueryOpts{})
			inflightResults <- err
		}()
	}
	// Wait until both queries are admitted and executing.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Inflight() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight queries never started")
		}
		time.Sleep(time.Millisecond)
	}
	srv.BeginDrain()
	// Liveness stays green while draining; readiness fails so load balancers
	// de-pool the instance.
	if h, err := client.Health(ctx); err != nil || h.Status != "draining" {
		t.Fatalf("draining health: %+v, %v; want 200 with status draining", h, err)
	}
	if err := client.ReadyCheck(ctx); err == nil {
		t.Fatal("readiness must fail while draining")
	} else if ae := new(APIError); !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %v, want 503", err)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-inflightResults; err != nil {
			t.Fatalf("in-flight request dropped during drain: %v", err)
		}
	}
	// The listener is closed: new connections must be refused.
	if _, err := client.Health(ctx); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// TestClientTimeoutPropagation proves a short client deadline cancels the
// server-side merge instead of letting it run to completion.
func TestClientTimeoutPropagation(t *testing.T) {
	st := &throttledStore{Store: storage.NewMemStore[int64](storage.Int64Codec{})}
	client, _, _ := bootServer(t, Config{DefaultTimeout: 5 * time.Second}, st, nil)
	ctx := context.Background()
	if _, err := client.CreateDataset(ctx, CreateDatasetRequest{Name: "d", NF: 256}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := client.IngestValues(ctx, "d", part(i), 0, []int64{1, 2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
	}
	st.delay.Store(int64(200 * time.Millisecond)) // ≥200ms per full merge
	start := time.Now()
	_, err := client.Estimate(ctx, "d", "avg", QueryOpts{Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want 504", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v; deadline did not propagate into the merge", elapsed)
	}
}
