package core

import (
	"slices"
	"strings"
	"testing"

	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// TestHBPhaseTransitionEvents drives Algorithm HB through both of its
// boundary crossings and asserts the phase_transitions counter moves by
// exactly one per crossing: exhaustive→Bernoulli, then Bernoulli→reservoir.
func TestHBPhaseTransitionEvents(t *testing.T) {
	reg := obs.NewRegistry()
	transitions := reg.Counter("core.hb.phase_transitions")

	cfg := ConfigForNF(64)
	// expectedN well above n_F keeps q comfortably inside (0,1), so the
	// exact phase exits into Bernoulli, and enough further arrivals push the
	// Bernoulli sample over n_F into the reservoir fallback.
	hb := NewHB[int64](cfg, 4*64, randx.New(1))
	hb.Instrument(reg)

	v := int64(0)
	for hb.Phase() == PhaseExact {
		hb.Feed(v)
		v++
	}
	if hb.Phase() != PhaseBernoulli {
		t.Fatalf("exact phase exited into %v, want bernoulli", hb.Phase())
	}
	if n := transitions.Value(); n != 1 {
		t.Fatalf("after exact exit: %d transitions counted, want exactly 1", n)
	}
	if items := reg.Counter("core.hb.items").Value(); items != hb.Seen() {
		t.Errorf("items counter %d != Seen() %d at the transition", items, hb.Seen())
	}

	for hb.Phase() == PhaseBernoulli {
		hb.Feed(v)
		v++
		if v > 1<<20 {
			t.Fatal("sampler never entered reservoir phase")
		}
	}
	if hb.Phase() != PhaseReservoir {
		t.Fatalf("bernoulli phase exited into %v, want reservoir", hb.Phase())
	}
	if n := transitions.Value(); n != 2 {
		t.Fatalf("after reservoir entry: %d transitions counted, want exactly 2", n)
	}

	// Feeding on in reservoir phase must not produce further transitions.
	for i := 0; i < 10000; i++ {
		hb.Feed(v)
		v++
	}
	if n := transitions.Value(); n != 2 {
		t.Errorf("steady reservoir phase counted extra transitions: %d total", n)
	}
	// Mid-stream the batched items counter may trail Seen() by less than
	// one flush batch; Finalize flushes, after which it is exact.
	if items, seen := reg.Counter("core.hb.items").Value(), hb.Seen(); items > seen || seen-items >= 4096 {
		t.Errorf("mid-stream items counter %d outside (%d-4096, %d]", items, seen, seen)
	}
	if _, err := hb.Finalize(); err != nil {
		t.Fatal(err)
	}
	if items := reg.Counter("core.hb.items").Value(); items != hb.Seen() {
		t.Errorf("items counter after finalize %d != Seen() %d", items, hb.Seen())
	}
	if n := reg.Counter("core.hb.finalized").Value(); n != 1 {
		t.Errorf("finalized = %d, want 1", n)
	}
}

// TestHBCountersReconcile finishes Algorithm HB in its Bernoulli phase and
// checks the accounting identity: final sample size = size left by the
// phase-1 purge (the count held at the exit less core.purge.dropped) +
// Bernoulli acceptances since.
func TestHBCountersReconcile(t *testing.T) {
	reg := obs.NewRegistry()

	const n = 4096
	cfg := ConfigForNF(512)
	hb := NewHB[int64](cfg, n, randx.New(7))
	hb.Instrument(reg)
	var fedAtExit int64
	for v := int64(0); v < n; v++ {
		hb.Feed(v)
		if fedAtExit == 0 && hb.Phase() != PhaseExact {
			fedAtExit = hb.Seen()
		}
	}
	s, err := hb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != BernoulliKind {
		t.Fatalf("sample kind %v; this test needs a Bernoulli finish (tune n/nF)", s.Kind)
	}
	if p := reg.Counter("core.purge.bernoulli").Value(); p != 1 {
		t.Fatalf("bernoulli purges = %d, want 1 (the phase-1 exit)", p)
	}
	if p := reg.Counter("core.purge.reservoir").Value(); p != 0 {
		t.Fatalf("reservoir purges = %d, want 0 on a Bernoulli finish", p)
	}
	// The exact phase holds every value fed before the one that ends it
	// (that one goes to the Bernoulli phase), so the purge started from
	// fedAtExit-1 values.
	after := fedAtExit - 1 - reg.Counter("core.purge.dropped").Value()
	accepts := reg.Counter("core.hb.accepts").Value()
	if got := s.Size(); got != after+accepts {
		t.Errorf("final size %d != purge-survivors %d + accepts %d", got, after, accepts)
	}
	if items := reg.Counter("core.hb.items").Value(); items != n || s.ParentSize != n {
		t.Errorf("items=%d parent=%d, want both %d", items, s.ParentSize, n)
	}
}

// TestHRTransitionAndReconcile checks Algorithm HR: exactly one
// exact→reservoir crossing, and the final sample size equals the lazy
// purge's survivor count (reservoir insertions replace, never grow).
func TestHRTransitionAndReconcile(t *testing.T) {
	reg := obs.NewRegistry()

	const n = 10000
	cfg := ConfigForNF(64)
	hr := NewHR[int64](cfg, randx.New(3))
	hr.Instrument(reg)
	for v := int64(0); v < n; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("core.hr.phase_transitions").Value(); n != 1 {
		t.Fatalf("transitions = %d, want exactly 1", n)
	}
	if hr.Phase() != PhaseReservoir {
		t.Fatalf("phase %v, want reservoir", hr.Phase())
	}
	if s.Kind != ReservoirKind || s.Size() != 64 {
		t.Fatalf("final sample kind=%v size=%d, want reservoir of 64", s.Kind, s.Size())
	}
	if p := reg.Counter("core.purge.reservoir").Value(); p != 1 {
		t.Fatalf("reservoir purges = %d, want 1 (the lazy reservoir purge)", p)
	}
	if items := reg.Counter("core.hr.items").Value(); items != n {
		t.Errorf("items counter = %d, want %d", items, n)
	}
	if ins := reg.Counter("core.hr.reservoir_inserts").Value(); ins <= 0 {
		t.Errorf("reservoir_inserts = %d, want > 0 over %d arrivals", ins, n)
	}
}

// TestHRExhaustiveNoEvents: a partition that never hits the bound crosses
// no boundary and purges nothing — only the finalize counter moves.
func TestHRExhaustiveNoEvents(t *testing.T) {
	reg := obs.NewRegistry()
	hr := NewHR[int64](ConfigForNF(1024), randx.New(5))
	hr.Instrument(reg)
	for v := int64(0); v < 100; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Exhaustive {
		t.Fatalf("kind = %v, want exhaustive", s.Kind)
	}
	for _, name := range []string{"core.hr.phase_transitions", "core.purge.reservoir", "core.purge.bernoulli"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("exhaustive run counted %s = %d, want 0", name, n)
		}
	}
	if n := reg.Counter("core.hr.finalized").Value(); n != 1 {
		t.Errorf("finalized = %d, want 1", n)
	}
}

// TestSBCountersReconcile: for the fixed-rate Bernoulli baseline the accept
// counter IS the sample size.
func TestSBCountersReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	sb := NewSB[int64](ConfigForNF(1024), 0.25, randx.New(9))
	sb.Instrument(reg)
	const n = 5000
	for v := int64(0); v < n; v++ {
		sb.Feed(v)
	}
	s, err := sb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if acc := reg.Counter("core.sb.accepts").Value(); acc != s.Size() {
		t.Errorf("accepts %d != sample size %d", acc, s.Size())
	}
	if items := reg.Counter("core.sb.items").Value(); items != n {
		t.Errorf("items = %d, want %d", items, n)
	}
}

// TestSamplersRegisterOnlyTheirCounters: each sampler kind registers the
// counters it increments and no other, so a registry never carries a series
// that is 0 by construction (HR's accepts, SB's inserts and transitions).
func TestSamplersRegisterOnlyTheirCounters(t *testing.T) {
	cfg := ConfigForNF(64)
	for _, tc := range []struct {
		component  string
		instrument func(*obs.Registry)
		want       []string
	}{
		{"core.hb", func(r *obs.Registry) { NewHB[int64](cfg, 256, randx.New(1)).Instrument(r) },
			[]string{"accepts", "items", "phase_transitions", "reservoir_inserts"}},
		{"core.hr", func(r *obs.Registry) { NewHR[int64](cfg, randx.New(1)).Instrument(r) },
			[]string{"items", "phase_transitions", "reservoir_inserts"}},
		{"core.sb", func(r *obs.Registry) { NewSB[int64](cfg, 0.5, randx.New(1)).Instrument(r) },
			[]string{"accepts", "items"}},
	} {
		reg := obs.NewRegistry()
		tc.instrument(reg)
		var got []string
		for name := range reg.Snapshot().Counters {
			got = append(got, strings.TrimPrefix(name, tc.component+"."))
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s registers %v, want %v", tc.component, got, tc.want)
		}
	}
}

// TestUninstrumentedSamplersUnchanged guards the nil-safe no-op contract at
// the sampler level: an uninstrumented run must behave identically (same
// deterministic sample) with zero observability state.
func TestUninstrumentedSamplersUnchanged(t *testing.T) {
	cfg := ConfigForNF(64)
	run := func(reg *obs.Registry) *Sample[int64] {
		hr := NewHR[int64](cfg, randx.New(11))
		if reg != nil {
			hr.Instrument(reg)
		}
		for v := int64(0); v < 3000; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := run(nil)
	instr := run(obs.NewRegistry())
	if plain.Size() != instr.Size() || plain.Kind != instr.Kind || plain.ParentSize != instr.ParentSize {
		t.Errorf("instrumentation changed the sample: %+v vs %+v", plain, instr)
	}
	a := plain.Hist.Expand()
	b := instr.Hist.Expand()
	if len(a) != len(b) {
		t.Fatalf("bag sizes differ: %d vs %d", len(a), len(b))
	}
	am := map[int64]int{}
	for _, v := range a {
		am[v]++
	}
	for _, v := range b {
		am[v]--
	}
	for v, c := range am {
		if c != 0 {
			t.Fatalf("samples differ at value %d (delta %d)", v, c)
		}
	}
}
