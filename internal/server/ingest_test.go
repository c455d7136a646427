package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// ingestNodes is n swd nodes over in-memory stores with raw access, each
// with its own journal when asked — one standalone node, or an n-way
// replicated cluster in which every node holds every partition.
type ingestNodes struct {
	stores  []*storage.MemStore[int64]
	servers []*Server
	clients []*Client
}

func bootIngestNodes(t *testing.T, n int, journal bool) *ingestNodes {
	t.Helper()
	in := &ingestNodes{}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, "http://"+ln.Addr().String()
	}
	for i := range lns {
		st := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
		wh, _, err := warehouse.Open[int64](st, uint64(500+i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{DefaultTimeout: 5 * time.Second, Registry: obs.NewRegistry(),
			SlowLogThreshold: time.Nanosecond} // keep every request's span tree
		if journal {
			lg, _, err := wal.Open[int64](filepath.Join(t.TempDir(), "wal"), storage.Int64Codec{}, wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = lg.Close() })
			cfg.Journal = lg
		}
		srv := New(wh, cfg)
		if n > 1 {
			if err := srv.EnableCluster(ClusterConfig{Peers: addrs, ShardID: i, Replication: n, HedgeDisabled: true}); err != nil {
				t.Fatal(err)
			}
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close() })
		in.stores = append(in.stores, st)
		in.servers = append(in.servers, srv)
		in.clients = append(in.clients, NewClient(addrs[i], nil).SetRetryPolicy(NoRetry()))
	}
	return in
}

// ingestSpans returns the stage-span names under the newest partition.ingest
// request in the node's slow log, in order, wal_append children collapsed.
func (in *ingestNodes) ingestSpans(t *testing.T, node int) []string {
	t.Helper()
	for _, e := range in.servers[node].slow.snapshot().Entries {
		if e.Route != "partition.ingest" {
			continue
		}
		var names []string
		for _, c := range e.Trace.Children {
			if c.Name == "admission_wait" {
				continue
			}
			names = append(names, c.Name)
			if len(c.Children) > 0 {
				names = append(names, c.Name+"/"+c.Children[0].Name)
			}
		}
		return names
	}
	t.Fatal("no partition.ingest entry in the slow log")
	return nil
}

// TestIngestPathsAgree: the same batch entering through a single node,
// through a coordinator's own replica leg and through a leg forwarded to a
// peer is one code path (ingestLocal), so all three store byte-identical
// samples, acknowledge with equal sample metadata, open the same stage spans,
// and replay a keyed retry — with the journal on or off.
func TestIngestPathsAgree(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	body := valuesBody(seqValues(0, 3*ingestChunk+17)) // three full journal frames and a tail
	for _, journal := range []bool{false, true} {
		for _, key := range []string{"", "batch-1"} {
			name := map[bool]string{false: "nojournal", true: "journal"}[journal] + "/key=" + key
			t.Run(name, func(t *testing.T) {
				single := bootIngestNodes(t, 1, journal)
				cluster := bootIngestNodes(t, 2, journal) // node 0 coordinates: self leg; node 1: forwarded leg
				for _, in := range []*ingestNodes{single, cluster} {
					if _, err := in.clients[0].CreateDataset(ctx, CreateDatasetRequest{Name: "d", NF: 256}); err != nil {
						t.Fatal(err)
					}
				}
				want, replayed, err := single.clients[0].putPartition(ctx, "d", "p", 0, key, strings.NewReader(body), false)
				if err != nil || replayed {
					t.Fatalf("single-node ingest: replayed=%v err=%v", replayed, err)
				}
				got, replayed, err := cluster.clients[0].putPartition(ctx, "d", "p", 0, key, strings.NewReader(body), false)
				if err != nil || replayed {
					t.Fatalf("clustered ingest: replayed=%v err=%v", replayed, err)
				}
				if got.Sample != want.Sample || got.Read != want.Read || len(got.Replicas) != 2 || got.Degraded {
					t.Fatalf("clustered ack %+v, single-node ack %+v", got, want)
				}
				wantRaw, err := single.stores[0].GetRaw("d/p")
				if err != nil {
					t.Fatal(err)
				}
				for i, leg := range []string{"self", "forwarded"} {
					raw, err := cluster.stores[i].GetRaw("d/p")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, wantRaw) {
						t.Errorf("%s leg stored different bytes than the single node", leg)
					}
					// The forwarded leg is an ordinary local ingest on its node.
					if a, b := cluster.ingestSpans(t, i), single.ingestSpans(t, 0); !slices.Equal(a, b) {
						t.Errorf("%s leg stage spans %v, single node %v", leg, a, b)
					}
				}
				stages := []string{"ingest_read", "finalize", "rollin"}
				if journal {
					stages = []string{"ingest_read", "ingest_read/wal_append", "wal_seal", "wal_seal/wal_fsync", "finalize", "rollin"}
				}
				if got := single.ingestSpans(t, 0); !slices.Equal(got, stages) {
					t.Errorf("stage spans %v, want %v", got, stages)
				}
				if key == "" {
					return
				}
				// A keyed retry answers from the registry on every path: the
				// single node, and — retried through the other coordinator, so
				// the roles swap — both replica legs.
				again, replayed, err := single.clients[0].putPartition(ctx, "d", "p", 0, key, strings.NewReader(body), false)
				if err != nil || !replayed || again.Sample != want.Sample {
					t.Fatalf("single-node retry: replayed=%v err=%v resp=%+v", replayed, err, again)
				}
				again, _, err = cluster.clients[1].putPartition(ctx, "d", "p", 0, key, strings.NewReader(body), false)
				if err != nil || again.Sample != want.Sample {
					t.Fatalf("clustered retry: err=%v resp=%+v", err, again)
				}
				for _, rs := range again.Replicas {
					if rs.State != "replayed" {
						t.Errorf("clustered retry replica %+v, want replayed", rs)
					}
				}
				if info, err := cluster.clients[0].PartitionInfo(ctx, "d", "p"); err != nil || info.ParentSize != want.Sample.ParentSize {
					t.Fatalf("partition after retries: %+v, %v; want parent size %d", info, err, want.Sample.ParentSize)
				}
			})
		}
	}
}

// TestClusterIngestClientErrorIs4xx: a request every replica would refuse is
// the client's mistake, in cluster mode as on a single node — not a "0
// replicas acknowledged" 503, which server.Client would retry with backoff.
func TestClusterIngestClientErrorIs4xx(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	single := bootIngestNodes(t, 1, false)
	cluster := bootIngestNodes(t, 2, false)
	for name, in := range map[string]*ingestNodes{"single": single, "cluster": cluster} {
		if _, err := in.clients[0].CreateDataset(ctx, CreateDatasetRequest{Name: "hb", Algorithm: "HB", NF: 256}); err != nil {
			t.Fatal(err)
		}
		status := func(ds, part string, expected int64) int {
			_, err := in.clients[0].IngestValues(ctx, ds, part, expected, seqValues(0, 100))
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("%s: ingest %s/%s expected=%d: err=%v, want an API error", name, ds, part, expected, err)
			}
			return ae.StatusCode
		}
		if got := status("hb", "p", 0); got != http.StatusBadRequest {
			t.Errorf("%s: HB ingest without expected = %d, want 400", name, got)
		}
		if got := status("nope", "p", 0); got != http.StatusNotFound {
			t.Errorf("%s: ingest into an unknown data set = %d, want 404", name, got)
		}
		if resp, err := in.clients[0].IngestValues(ctx, "hb", "p", 100, seqValues(0, 100)); err != nil || resp.Sample.ParentSize != 100 {
			t.Errorf("%s: HB ingest with expected: %+v, %v", name, resp, err)
		}
	}
}

// TestScanValuesLineBound: the body scanner takes a line of up to 1 MiB,
// newline included, and answers 400 to a longer one, whatever size its buffer
// starts at — and a request of ordinary lines allocates that starting buffer
// and the chunk, not the megabyte the longest permitted line would need.
func TestScanValuesLineBound(t *testing.T) {
	s := newTestServer(t, Config{})
	scan := func(body string) ([]int64, error) {
		r := httptest.NewRequest(http.MethodPut, "/v1/datasets/d/partitions/p", strings.NewReader(body))
		var all []int64
		for source := s.scanValues(httptest.NewRecorder(), r); ; {
			chunk, err := source()
			if err != nil || len(chunk) == 0 {
				return all, err
			}
			all = append(all, chunk...)
		}
	}
	pad := func(n int) string { return strings.Repeat(" ", n-1) + "7" }

	vals, err := scan("1\n" + pad(1<<20-1) + "\n3\n")
	if err != nil || !slices.Equal(vals, []int64{1, 7, 3}) {
		t.Fatalf("a (1 MiB − 1)-byte line: values %v, err %v", vals, err)
	}
	if _, err := scan(strings.Repeat("9", 1<<20-1) + "\n"); err == nil || !strings.Contains(err.Error(), "value 1: ") {
		t.Fatalf("a (1 MiB − 1)-digit value: err = %v, want the parse failure", err)
	}
	var he *httpError
	if _, err := scan("1\n" + pad(1<<20) + "\n"); !errors.As(err, &he) || he.code != http.StatusBadRequest ||
		!strings.Contains(he.msg, "read: bufio.Scanner: token too long") {
		t.Fatalf("a 1 MiB line: err = %v, want 400 token too long", err)
	}

	body := strings.Repeat("-1234567890123456789\n", 2*ingestChunk)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if vals, err := scan(body); err != nil || len(vals) != 2*ingestChunk {
			t.Fatalf("scan: %d values, %v", len(vals), err)
		}
	}
	runtime.ReadMemStats(&after)
	// 64 KiB of scanner buffer, 32 KiB of chunk, this test's own ~192 KiB of
	// collected values and the request; the megabyte buffer put it over 1.3 MB.
	if perReq := (after.TotalAlloc - before.TotalAlloc) / runs; perReq > 400<<10 {
		t.Fatalf("scanning 8192 short lines allocates %d bytes per request, want under 400 KiB", perReq)
	}
}

// referenceScan is the ingest body parser without parseShortInt: every line
// through strings.TrimSpace and strconv.ParseInt. FuzzIngestBody holds
// scanValues to it.
func referenceScan(body []byte) ([]int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, scanBufStart), maxIngestLine)
	var vals []int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, badRequest("ingest d/p: value %d: %v", len(vals)+1, err)
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, badRequest("ingest d/p: read: %v", err)
	}
	return vals, nil
}

// FuzzIngestBody: scanValues reads every body as the reference does — the
// same values, or the same status and message.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		"+5\n-0\n007\n",
		"123456789012345678\n-123456789012345678\n1234567890123456789\n",
		"9223372036854775807\n-9223372036854775807\n-9223372036854775808\n",
		"9223372036854775808\n",
		"1\r\n2\r\n\r\n\n3",
		" 4 \n5\u0085\n\u0085\n",
		"1_000\n",
		"+\n",
		"-\n",
		strings.Repeat("7", maxIngestLine) + "\n",
	} {
		f.Add([]byte(seed))
	}
	s := &Server{} // the parser reads the request only
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPut, "/v1/datasets/d/partitions/p", bytes.NewReader(body))
		r.SetPathValue("ds", "d")
		r.SetPathValue("part", "p")
		var got []int64
		var err error
		for source := s.scanValues(httptest.NewRecorder(), r); ; {
			var chunk []int64
			if chunk, err = source(); err != nil || len(chunk) == 0 {
				break
			}
			got = append(got, chunk...)
		}
		want, wantErr := referenceScan(body)
		if wantErr != nil || err != nil {
			he, ok := err.(*httpError)
			we, wok := wantErr.(*httpError)
			if !ok || !wok || he.code != we.code || he.msg != we.msg {
				t.Fatalf("body %q: error %v, reference %v", body, err, wantErr)
			}
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("body %q: values %v, reference %v", body, got, want)
		}
	})
}

// TestSmallPutIgnoresLargeNF: what a PUT allocates grows with the rows it
// sends, not with the dataset's n_F, which a create body sets without an
// upper bound. A three-row PUT into an HR dataset whose n_F is 4 Mi would
// allocate well over 64 MiB if the sampler reserved for n_F up front.
func TestSmallPutIgnoresLargeNF(t *testing.T) {
	wh, _, err := warehouse.Open[int64](storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(wh, Config{})
	if w := do(t, s, http.MethodPost, "/v1/datasets", `{"name":"big","algorithm":"HR","nf":4194304}`); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := do(t, s, http.MethodPut, "/v1/datasets/big/partitions/p", "1\n2\n2\n")
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusCreated {
		t.Fatalf("put: %d %s", w.Code, w.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("a 3-row PUT at n_F = 4 Mi allocated %d bytes", got)
	}
}
