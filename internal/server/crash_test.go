package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// durableServer is one incarnation of a journal-backed server over a shared
// warehouse directory — the in-process equivalent of one swd lifetime.
type durableServer struct {
	client  *Client
	httpSrv *http.Server
	journal *wal.Log[int64]
	wh      *warehouse.Warehouse[int64]
}

// bootDurable opens the warehouse directory exactly the way cmd/swd does:
// file store, durable catalog, journal replay, idempotency seeding.
func bootDurable(t *testing.T, dir string) *durableServer {
	t.Helper()
	st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := warehouse.Open[int64](st, 99)
	if err != nil {
		t.Fatal(err)
	}
	lg, recovered, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{}, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var replayed []warehouse.ReplayedIngest[int64]
	if len(recovered) > 0 {
		rep, err := wh.ReplayJournal(lg, recovered)
		if err != nil {
			t.Fatal(err)
		}
		replayed = rep.Replayed
	}
	srv := New(wh, Config{DefaultTimeout: 5 * time.Second, Journal: lg})
	srv.SeedIdempotency(replayed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	t.Cleanup(func() { _ = httpSrv.Close() })
	return &durableServer{
		client:  NewClient("http://"+ln.Addr().String(), nil).SetRetryPolicy(NoRetry()),
		httpSrv: httpSrv,
		journal: lg,
		wh:      wh,
	}
}

// kill abandons the incarnation without any cleanup: the listener dies but
// the journal is neither committed nor closed, exactly like a SIGKILL. The
// leaked file descriptor is reclaimed when the test process exits.
func (d *durableServer) kill() { _ = d.httpSrv.Close() }

// TestCrashRecoveryExactlyOnce proves the acknowledged-exactly-once contract
// across process "deaths": a batch that was sealed (acked) but never rolled
// in must reappear after restart with its exact parent size, and re-sending
// it under the same idempotency key must not double-count. Run under -race.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Incarnation 1: normal traffic, then a crash after ack, before roll-in.
	s1 := bootDurable(t, dir)
	if _, err := s1.client.CreateDataset(ctx, CreateDatasetRequest{Name: "d", Algorithm: "HR", NF: 512}); err != nil {
		t.Fatal(err)
	}
	const committed = 4
	for i := 0; i < committed; i++ {
		vals := make([]int64, 1000)
		for j := range vals {
			vals[j] = int64(i*1000 + j)
		}
		if _, err := s1.client.IngestValues(ctx, "d", part(i), 0, vals); err != nil {
			t.Fatal(err)
		}
	}
	// The crashed batch: journaled and sealed — the state an HTTP client has
	// already received 201 for — but the process dies before RollIn commits.
	// Driving the journal directly pins the crash to that exact window.
	lost := make([]int64, 777)
	for j := range lost {
		lost[j] = int64(90000 + j)
	}
	entry, err := s1.journal.Begin("d", "crashed", "key-crashed", int64(len(lost)))
	if err != nil {
		t.Fatal(err)
	}
	if err := entry.Append(lost); err != nil {
		t.Fatal(err)
	}
	if err := entry.Seal(int64(len(lost))); err != nil {
		t.Fatal(err)
	}
	s1.kill()

	// Incarnation 2: replay must rebuild the crashed partition exactly.
	s2 := bootDurable(t, dir)
	pi, err := s2.client.PartitionInfo(ctx, "d", "crashed")
	if err != nil {
		t.Fatalf("crashed partition not replayed: %v", err)
	}
	if pi.ParentSize != int64(len(lost)) {
		t.Fatalf("replayed parent size %d, want %d", pi.ParentSize, len(lost))
	}
	for i := 0; i < committed; i++ {
		if _, err := s2.client.PartitionInfo(ctx, "d", part(i)); err != nil {
			t.Fatalf("committed partition %d lost: %v", i, err)
		}
	}

	// The client that was acked retries after reconnecting (same idempotency
	// key): the registry seeded from replay must swallow the duplicate.
	var buf bytes.Buffer
	for _, v := range lost {
		fmt.Fprintln(&buf, v)
	}
	resp, err := s2.client.IngestKeyed(ctx, "d", "crashed", int64(len(lost)), "key-crashed", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sample.ParentSize != int64(len(lost)) {
		t.Fatalf("idempotent replay parent size %d, want %d", resp.Sample.ParentSize, len(lost))
	}
	pi, err = s2.client.PartitionInfo(ctx, "d", "crashed")
	if err != nil {
		t.Fatal(err)
	}
	if pi.ParentSize != int64(len(lost)) {
		t.Fatalf("duplicate ingest double-counted: parent size %d, want %d", pi.ParentSize, len(lost))
	}
	s2.kill()

	// Incarnation 3: everything was committed, so the journal must come up
	// empty and the data must still be whole.
	s3 := bootDurable(t, dir)
	resp2, err := s3.client.Estimate(ctx, "d", "avg", QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(committed*1000 + len(lost))
	if resp2.Sample.ParentSize != want {
		t.Fatalf("final parent size %d, want %d", resp2.Sample.ParentSize, want)
	}
	if len(resp2.Coverage.Merged) != committed+1 {
		t.Fatalf("coverage %+v, want %d partitions", resp2.Coverage, committed+1)
	}
}
