package faults

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
)

func fixture(t *testing.T, seed uint64, n int64) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(64), randx.New(seed))
	for v := int64(0); v < n; v++ {
		hr.Feed(v % (n/2 + 1))
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCleanScheduleIsTransparent(t *testing.T) {
	st := Wrap[int64](storage.NewMemStore[int64](storage.Int64Codec{}), Rates{})
	s := fixture(t, 1, 500)
	if err := st.Put("a/b", s); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hist.Equal(s.Hist) {
		t.Fatal("sample changed through clean injector")
	}
	keys, err := st.Keys("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if err := st.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.TotalInjected() != 0 || stats.TotalOps() != 4 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFailNth(t *testing.T) {
	boom := TransientErr(OpPut, "x")
	st := Wrap[int64](storage.NewMemStore[int64](storage.Int64Codec{}), FailNth{Op: OpPut, N: 2, Err: boom})
	s := fixture(t, 2, 300)
	if err := st.Put("k", s); err != nil {
		t.Fatalf("first put: %v", err)
	}
	err := st.Put("k", s)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("second put err = %v", err)
	}
	if err := st.Put("k", s); err != nil {
		t.Fatalf("third put: %v", err)
	}
	if got := st.Stats().Injected[OpPut]; got != 1 {
		t.Fatalf("injected puts = %d", got)
	}
}

func TestFailKey(t *testing.T) {
	st := Wrap[int64](storage.NewMemStore[int64](storage.Int64Codec{}), FailKey{Op: OpGet, Key: "bad", Err: CorruptErr("bad")})
	s := fixture(t, 3, 300)
	for _, k := range []string{"bad", "good"} {
		if err := st.Put(k, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Get("good"); err != nil {
		t.Fatalf("good key: %v", err)
	}
	_, err := st.Get("bad")
	if !storage.IsCorrupt(err) {
		t.Fatalf("bad key err = %v", err)
	}
}

func TestRatesDeterministic(t *testing.T) {
	sched := Rates{Seed: 42, Transient: 0.3, Corrupt: 0.2}
	other := Rates{Seed: 42, Transient: 0.3, Corrupt: 0.2}
	for seq := int64(1); seq <= 200; seq++ {
		for _, key := range []string{"a", "b/c", "long/key/name"} {
			f1 := sched.Decide(OpGet, seq, key)
			f2 := other.Decide(OpGet, seq, key)
			if (f1.Err == nil) != (f2.Err == nil) {
				t.Fatalf("seq %d key %q: decisions diverge", seq, key)
			}
		}
	}
}

func TestRatesCorruptionSticky(t *testing.T) {
	sched := Rates{Seed: 7, Corrupt: 0.5}
	// Find a key the schedule corrupts, then confirm every read of it fails
	// and keys it spares never fail.
	var corrupt, clean string
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"} {
		if sched.Decide(OpGet, 1, k).Err != nil {
			corrupt = k
		} else {
			clean = k
		}
	}
	if corrupt == "" || clean == "" {
		t.Skip("seed produced a degenerate split; adjust seed")
	}
	for seq := int64(1); seq <= 50; seq++ {
		if sched.Decide(OpGet, seq, corrupt).Err == nil {
			t.Fatalf("corrupt key %q read cleanly at seq %d", corrupt, seq)
		}
		if err := sched.Decide(OpGet, seq, clean).Err; err != nil && storage.IsCorrupt(err) {
			t.Fatalf("clean key %q corrupted at seq %d", clean, seq)
		}
	}
}

func TestRatesTransientFrequency(t *testing.T) {
	sched := Rates{Seed: 11, Transient: 0.2}
	var hits int
	const n = 5000
	for seq := int64(1); seq <= n; seq++ {
		if sched.Decide(OpPut, seq, "k").Err != nil {
			hits++
		}
	}
	want := ExpectedFailures(n, 0.2)
	if float64(hits) < want*0.8 || float64(hits) > want*1.2 {
		t.Fatalf("transient hits = %d, want ~%.0f", hits, want)
	}
}

func TestDelayInjection(t *testing.T) {
	st := Wrap[int64](storage.NewMemStore[int64](storage.Int64Codec{}), Rates{Delay: 5 * time.Millisecond})
	var slept []time.Duration
	st.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	if err := st.Put("k", fixture(t, 4, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("k"); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 || slept[0] != 5*time.Millisecond {
		t.Fatalf("slept = %v", slept)
	}
	if st.Stats().Delays != 2 {
		t.Fatalf("delay count = %d", st.Stats().Delays)
	}
}

func TestCompose(t *testing.T) {
	boom := TransientErr(OpGet, "k")
	sched := Compose(
		Rates{Delay: time.Millisecond},
		FailNth{Op: OpGet, N: 1, Err: boom},
	)
	f := sched.Decide(OpGet, 1, "k")
	if f.Delay != time.Millisecond || f.Err == nil {
		t.Fatalf("composed fault = %+v", f)
	}
	if f = sched.Decide(OpGet, 2, "k"); f.Err != nil {
		t.Fatalf("seq 2 should be clean, got %v", f.Err)
	}
}

// TestEveryCallFaultable: every storage.Store call a warehouse makes passes
// through the injector — the sample writes as OpPut, the sample reads as
// OpGet, the blob calls under their own classes — and an injected failure
// reaches the inner store with nothing.
func TestEveryCallFaultable(t *testing.T) {
	prev, next := fixture(t, 8, 300), fixture(t, 9, 500)
	nextRaw, err := storage.EncodeSample(next, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   Op
		call func(st *Store[int64]) error
	}{
		{"Put", OpPut, func(st *Store[int64]) error { return st.Put("k", next) }},
		{"PutSample", OpPut, func(st *Store[int64]) error { _, err := st.PutSample("k", next); return err }},
		{"PutRaw", OpPut, func(st *Store[int64]) error { return st.PutRaw("k", nextRaw) }},
		{"Get", OpGet, func(st *Store[int64]) error { _, err := st.Get("k"); return err }},
		{"GetRaw", OpGet, func(st *Store[int64]) error { _, err := st.GetRaw("k"); return err }},
		{"Delete", OpDelete, func(st *Store[int64]) error { return st.Delete("k") }},
		{"Keys", OpKeys, func(st *Store[int64]) error { _, err := st.Keys(""); return err }},
		{"PutBlob", OpPutBlob, func(st *Store[int64]) error { return st.PutBlob("k", []byte("next")) }},
		{"GetBlob", OpGetBlob, func(st *Store[int64]) error { _, err := st.GetBlob("k"); return err }},
		{"DeleteBlob", OpDeleteBlob, func(st *Store[int64]) error { return st.DeleteBlob("k") }},
	} {
		mem := storage.NewMemStore[int64](storage.Int64Codec{})
		want, err := mem.PutSample("k", prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.PutBlob("k", []byte("prev")); err != nil {
			t.Fatal(err)
		}
		st := Wrap[int64](mem, FailNth{Op: c.op, N: 1, Err: TransientErr(c.op, "k")})
		if err := c.call(st); !errors.Is(err, ErrInjected) {
			t.Errorf("%s: err = %v, want an injected %s fault", c.name, err, c.op)
		}
		if got, _ := mem.GetRaw("k"); !bytes.Equal(got, want) {
			t.Errorf("%s: a failed call changed the stored sample", c.name)
		}
		if got, _ := mem.GetBlob("k"); string(got) != "prev" {
			t.Errorf("%s: a failed call changed the stored blob: %q", c.name, got)
		}
		if err := c.call(st); err != nil {
			t.Errorf("%s: second call: %v", c.name, err)
		}
	}
}

func TestInstrumentCounters(t *testing.T) {
	reg := obs.NewRegistry()
	st := Wrap[int64](storage.NewMemStore[int64](storage.Int64Codec{}), FailNth{Op: OpPut, N: 1, Err: TransientErr(OpPut, "k")})
	st.Instrument(reg)
	st.Put("k", fixture(t, 5, 100))
	if got := reg.Counter("faults.injected").Value(); got != 1 {
		t.Fatalf("faults.injected = %d", got)
	}
}

func TestConcurrentInjection(t *testing.T) {
	st := Wrap[int64](storage.NewMemStore[int64](storage.Int64Codec{}), Rates{Seed: 9, Transient: 0.3})
	s := fixture(t, 6, 200)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.Put("k", s)
				st.Get("k")
			}
		}(g)
	}
	wg.Wait()
	stats := st.Stats()
	if stats.Ops[OpPut] != 400 || stats.Ops[OpGet] != 400 {
		t.Fatalf("ops = %+v", stats.Ops)
	}
	if stats.TotalInjected() == 0 {
		t.Fatal("no faults injected at 30% rate")
	}
}
