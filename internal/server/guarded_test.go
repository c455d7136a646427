package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

// callFixture is one remote peer behind a breaker on the injectable clock
// (window 4, trips at 2 of 2), and the cluster state call counts into.
type callFixture struct {
	c   *clusterState
	p   *peer
	clk *testClock
	reg *obs.Registry
}

func newCallFixture() *callFixture {
	reg := obs.NewRegistry()
	f := &callFixture{
		c:   &clusterState{o: newClusterObs(reg)},
		p:   newPeer(1, "http://peer.invalid", false, time.Second, nil),
		reg: reg,
	}
	f.p.br, f.clk = newTestBreaker(4, 2)
	return f
}

// do sends one guarded call whose request answers err.
func (f *callFixture) do(err error) error {
	return f.c.call(context.Background(), f.p, func() error { return err })
}

// trip opens the breaker.
func (f *callFixture) trip(t *testing.T) {
	t.Helper()
	down := errors.New("dial tcp: connection refused")
	f.do(down)
	f.do(down)
	if f.p.br.State() != BreakerOpen {
		t.Fatalf("state %v after two transport errors, want open", f.p.br.State())
	}
}

// halfOpen trips the breaker and lets OpenFor elapse: the next call is the
// half-open probe.
func (f *callFixture) halfOpen(t *testing.T) {
	t.Helper()
	f.trip(t)
	f.clk.advance(1100 * time.Millisecond)
}

func (f *callFixture) latencies() (window int, hist int64) {
	return f.p.lat.n, f.reg.Snapshot().Histograms["cluster.peer_latency_ns"].Count
}

// TestGuardedCall pins the one breaker protocol every cluster path shares.
func TestGuardedCall(t *testing.T) {
	t.Run("outcomes settle the breaker under one health rule", func(t *testing.T) {
		cases := []struct {
			name string
			err  error
			trip bool // two of them open a closed breaker
		}{
			{"success", nil, false},
			{"clean 404", &APIError{StatusCode: http.StatusNotFound}, false},
			{"clean 409", &APIError{StatusCode: http.StatusConflict}, false},
			{"transport error", errors.New("dial tcp: connection refused"), true},
			{"deadline", context.DeadlineExceeded, true},
			{"503", &APIError{StatusCode: http.StatusServiceUnavailable}, true},
			{"429", &APIError{StatusCode: http.StatusTooManyRequests}, true},
		}
		for _, tc := range cases {
			f := newCallFixture()
			for i := 0; i < 2; i++ {
				if got := f.do(tc.err); got != tc.err {
					t.Errorf("%s: call returned %v, want fn's own %v", tc.name, got, tc.err)
				}
			}
			if open := f.p.br.State() == BreakerOpen; open != tc.trip {
				t.Errorf("%s twice: breaker open = %v, want %v", tc.name, open, tc.trip)
			}
		}
	})

	t.Run("a refused peer costs one skip and nothing else", func(t *testing.T) {
		f := newCallFixture()
		f.trip(t)
		ran := false
		err := f.c.call(context.Background(), f.p, func() error { ran = true; return nil })
		if !errors.Is(err, errBreakerOpen) || ran {
			t.Fatalf("call through an open breaker: err %v, fn ran %v; want errBreakerOpen and no request", err, ran)
		}
		if got := f.c.o.breakerSkips.Value(); got != 1 {
			t.Errorf("cluster.breaker_skips = %d, want 1", got)
		}
		if w, h := f.latencies(); w != 0 || h != 0 {
			t.Errorf("latency observed %d/%d times with no request sent", w, h)
		}
	})

	t.Run("latency is observed once per success and never for a failure", func(t *testing.T) {
		f := newCallFixture()
		f.do(nil)
		f.do(&APIError{StatusCode: http.StatusNotFound})
		f.do(errors.New("reset"))
		if w, h := f.latencies(); w != 1 || h != 1 {
			t.Errorf("latency window %d, cluster.peer_latency_ns %d observations; want 1 and 1", w, h)
		}
	})

	t.Run("a probe is recorded", func(t *testing.T) {
		f := newCallFixture()
		f.halfOpen(t)
		f.do(nil)
		if f.p.br.State() != BreakerClosed {
			t.Errorf("state %v after a successful probe, want closed", f.p.br.State())
		}
		f = newCallFixture()
		f.halfOpen(t)
		f.do(errors.New("still down"))
		if f.p.br.State() != BreakerOpen {
			t.Errorf("state %v after a failed probe, want open", f.p.br.State())
		}
	})

	// TestBreakerCancelProbeReleasesSlot's post-condition, reached through
	// call: the probe lost a hedge race, so a replacement is admitted at once
	// instead of after the latch expires.
	t.Run("a probe cancelled under its request is released, not recorded", func(t *testing.T) {
		f := newCallFixture()
		f.halfOpen(t)
		ctx, cancel := context.WithCancel(context.Background())
		err := f.c.call(ctx, f.p, func() error {
			if ok, _ := f.p.br.Allow(); ok {
				t.Error("slot held: a second probe must be refused while the first is in flight")
			}
			cancel()
			return ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call returned %v, want the cancellation", err)
		}
		if f.p.br.State() != BreakerHalfOpen {
			t.Fatalf("state %v: a cancelled probe must prove nothing about the peer", f.p.br.State())
		}
		if ok, probe := f.p.br.Allow(); !ok || !probe {
			t.Fatalf("Allow() = %v, %v after the cancelled probe, want a replacement probe", ok, probe)
		}
	})

	t.Run("the self peer is not guarded", func(t *testing.T) {
		f := newCallFixture()
		f.p.self = true
		f.do(errors.New("local failure"))
		f.do(errors.New("local failure"))
		if f.p.br.State() != BreakerClosed {
			t.Errorf("state %v: a local failure was recorded against the self peer", f.p.br.State())
		}
	})
}

// pullRecorder is the peer transport of TestRepairPartition: it notes which
// shard each partition pull went to and fails the request.
type pullRecorder struct {
	shard  int
	pulled *[]int
}

func (r pullRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/antientropy/partition" {
		*r.pulled = append(*r.pulled, r.shard)
	}
	return nil, errors.New("no network in this test")
}

// TestRepairPartition drives the one repair decision over fake digests. The
// shard under test is last in a three-member chain, so two members can
// outrank it; a pull shows up as a request to the authority's transport.
func TestRepairPartition(t *testing.T) {
	var pulled []int
	srv := New(openWarehouse(t, storage.NewMemStore[int64](storage.Int64Codec{}), 1), Config{Registry: obs.NewRegistry()})
	err := srv.EnableCluster(ClusterConfig{
		Peers:       []string{"http://s0.invalid", "http://s1.invalid", "http://s2.invalid"},
		ShardID:     0,
		Replication: 3,
		// Repair is on and idle: no sweep fires and no hint is pending.
		RepairInterval: time.Hour,
		HTTPClient: func(shard int, _ string) *http.Client {
			return &http.Client{Transport: pullRecorder{shard: shard, pulled: &pulled}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.StopRepair)
	c := srv.cluster
	for _, p := range c.peers { // the recorder's failed pulls never open a breaker
		p.br.minSamples = math.MaxInt
	}

	part := ""
	for i := 0; part == "" && i < 4096; i++ {
		if cand := fmt.Sprintf("p%04d", i); c.replicas("d", cand)[2].self {
			part = cand
		}
	}
	if part == "" {
		t.Fatal("no partition places shard 0 last in its chain")
	}
	chain := c.replicas("d", part)
	first, second := chain[0].id, chain[1].id

	const (
		absent      = "-" // reachable, does not list the partition
		unreachable = "?" // could not be asked
	)
	cases := []struct {
		name            string
		first, second   string // chain[0]'s and chain[1]'s digest entry
		self            string
		tombstone       bool
		wantPullFrom    int // -1: no pull
		wantErrContains string
	}{
		{name: "self is the earliest holder", first: absent, second: absent, self: "bbb.1", wantPullFrom: -1},
		{name: "nobody lists it", first: absent, second: absent, self: absent, wantPullFrom: -1},
		{name: "earlier member holds a different hash", first: "aaa.1", second: "ccc.1", self: "bbb.1", wantPullFrom: first},
		{name: "earlier member holds the same hash", first: "bbb.1", second: "ccc.1", self: "bbb.1", wantPullFrom: -1},
		{name: "missing locally", first: "aaa.1", second: "aaa.1", self: absent, wantPullFrom: first},
		{name: "first member unreachable, the next decides", first: unreachable, second: "ccc.1", self: "bbb.1", wantPullFrom: second},
		{name: "first member does not list it, the next decides", first: absent, second: "ccc.1", self: "bbb.1", wantPullFrom: second},
		{name: "everyone else unreachable", first: unreachable, second: unreachable, self: "bbb.1", wantPullFrom: -1},
		{name: "pending tombstone", first: "aaa.1", second: "ccc.1", self: "bbb.1", tombstone: true, wantPullFrom: -1},
		{name: "presence-only authority, held locally", first: "", second: "ccc.1", self: "bbb.1", wantPullFrom: -1},
		{name: "presence-only authority, missing locally", first: "", second: "ccc.1", self: absent, wantPullFrom: first},
		{name: "presence-only local copy", first: "aaa.1", second: "ccc.1", self: "", wantPullFrom: -1},
	}
	for _, tc := range cases {
		pulled = nil
		c.repair.mu.Lock()
		c.repair.hints = nil
		c.repair.mu.Unlock()
		if tc.tombstone {
			c.repair.addHint(first, "d", part, "", 0, nil, true)
		}
		entries := map[int]string{first: tc.first, second: tc.second, 0: tc.self}
		digestOf := func(p *peer) map[string]string {
			switch e := entries[p.id]; e {
			case unreachable:
				return nil
			case absent:
				return map[string]string{"other": "zzz.1"}
			default:
				return map[string]string{part: e, "other": "zzz.1"}
			}
		}
		member, err := srv.repairPartition(context.Background(), "d", part, digestOf)
		if !member {
			t.Errorf("%s: member = false for a partition whose chain holds this shard", tc.name)
		}
		want := []int(nil)
		if tc.wantPullFrom >= 0 {
			want = []int{tc.wantPullFrom}
		}
		if !slices.Equal(pulled, want) {
			t.Errorf("%s: pulled from shards %v, want %v", tc.name, pulled, want)
		}
		if (err != nil) != (tc.wantPullFrom >= 0) { // the recorder fails every pull it sees
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// TestClusterForwardedIngestHealsMissedDatasetCreate: a replica that never
// heard a data set's create broadcast accepts a forwarded keyed ingest for it
// — by whichever way the definition reaches it — ends up holding both the
// definition and the partition, and answers a second send of the same key
// from its registry.
func TestClusterForwardedIngestHealsMissedDatasetCreate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tc := newTestCluster(t, 2, clusterOpts{replication: 2})

	// Only shard 0 knows the data set: planted in its warehouse, no broadcast.
	cfg, err := DatasetConfig(CreateDatasetRequest{Name: "late", NF: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.whs[0].CreateDataset("late", cfg); err != nil {
		t.Fatal(err)
	}
	body := valuesBody(seqValues(0, 400))
	resp, err := tc.clients[0].IngestKeyed(ctx, "late", "p1", 0, "batch-1", strings.NewReader(body))
	if err != nil {
		t.Fatalf("keyed ingest via shard 0: %v", err)
	}
	if resp.Degraded || len(resp.Replicas) != 2 {
		t.Fatalf("ingest degraded = %v, replicas %+v; want both replicas to take it", resp.Degraded, resp.Replicas)
	}
	for _, rs := range resp.Replicas {
		if rs.State != "ok" {
			t.Fatalf("replica %+v, want ok", rs)
		}
	}
	if _, err := tc.whs[1].Config("late"); err != nil {
		t.Fatalf("shard 1 must hold the definition now: %v", err)
	}
	if parts, err := tc.whs[1].Partitions("late"); err != nil || !slices.Contains(parts, "p1") {
		t.Fatalf("shard 1 partitions %v (%v), want p1", parts, err)
	}
	// The same forwarded leg again, as a coordinator's retry would send it.
	again, replayed, err := tc.clients[1].putPartition(ctx, "late", "p1", 0, "batch-1", strings.NewReader(body), true)
	if err != nil || !replayed {
		t.Fatalf("second send of the key to the healed replica: replayed = %v, err = %v", replayed, err)
	}
	if again.Read != 400 || again.Sample.ParentSize != 400 {
		t.Fatalf("replayed answer %+v, want the original 400-row batch", again)
	}
}
