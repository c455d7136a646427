package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request-scoped span tree: a root span plus the timed stages
// recorded beneath it as the request flows through admission control, the
// journal, the loader, the merge executor and the estimators. It is the
// primitive behind the server's ?explain=1 query EXPLAIN and the slow-query
// log.
//
// The spans live in the trace's arena: slot 0 is the root, and Start claims
// the next slot with one atomic add and records its parent's slot there, so a
// span is no heap object of its own. The first slots are part of the Trace;
// later ones come in chunks, each twice the size of the one before.
//
// Like the rest of obs, traces are nil-safe: every method on a nil *Trace or
// nil *Span is a no-op (Start on a nil span returns a nil span), so
// instrumented code records unconditionally and an untraced call path — a
// context that never passed through the tracing middleware — pays one
// predictable nil check per stage. All methods are safe for concurrent use;
// sibling spans may be recorded from concurrent goroutines (the loader's
// partition fetches do exactly that).
type Trace struct {
	id      string
	origin  time.Duration // the root's start on the process clock; span times are offsets from it
	next    atomic.Int64  // arena slots claimed, root included
	dropped atomic.Int64  // spans started but not recorded
	first   [firstChunk]Span
	chunks  [arenaChunks - 1]atomic.Pointer[[]Span] // chunk c holds firstChunk<<c slots
}

const (
	// firstChunk is the number of arena slots inside the Trace itself: enough
	// for a 16-partition merge's 23 spans, so a warm served estimate's trace
	// is one allocation.
	firstChunk = 24
	// arenaChunks bounds the arena at maxSpans slots.
	arenaChunks = 7
	maxSpans    = firstChunk * (1<<arenaChunks - 1)
)

// maxSpanChildren bounds the children recorded under one span, so a
// pathological request (a million-chunk ingest, say) cannot balloon the
// slow-query log or an explain response. Overflow is counted, not silent:
// the parent's snapshot carries DroppedChildren. A child the full arena has
// no slot for is dropped and counted the same way.
const maxSpanChildren = 128

// Span is one timed stage of a trace: a slot in its arena. Start opens
// children; End closes the span (idempotent). Labels hold small string
// attributes, Values numeric ones, each in a small inline array; those past
// it go to an overflow list the span allocates on first use.
type Span struct {
	tr       *Trace
	slot     int32
	parent   int32         // the parent's slot; -1 for the root
	ready    atomic.Bool   // set once tr, slot, parent, name and start are written
	children atomic.Int32  // Start calls on this span
	dropped  atomic.Int32  // of those, the children not recorded
	nl, nv   uint8         // inline labels and values in use; under mu
	end      atomic.Int64  // offset of End + 1; 0 while the span is open
	start    time.Duration // offset from the trace origin
	name     string

	mu     sync.Mutex // guards the attributes and their counts
	labels [spanLabels]attr[string]
	values [spanValues]attr[int64]
	more   *spanAttrs
}

// spanLabels and spanValues are the attributes a span holds inline: as many
// as every span but the bounded executor's plan span sets (it sets up to four
// labels and eight values, and overflows), since each slot of every arena
// pays for them.
const (
	spanLabels = 2
	spanValues = 3
)

// attr is one label or value: a key and what it is set to.
type attr[T string | int64] struct {
	k string
	v T
}

// spanAttrs holds a span's attributes past its inline arrays.
type spanAttrs struct {
	labels []attr[string]
	values []attr[int64]
}

// epoch is the process clock's zero: one monotonic reading stamps a span.
var epoch = time.Now()

// clock reads the process clock.
func clock() time.Duration { return time.Since(epoch) }

// idSeed and idCount mint trace IDs: a per-process counter mixed with a
// random seed drawn once.
var (
	idSeed  = randomSeed()
	idCount atomic.Uint64
)

// randomSeed draws the trace-ID seed from crypto/rand, or from the clock
// should that fail.
func randomSeed() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// NewTraceID returns a fresh 16-hex-character trace ID: the next value of the
// process's counter, offset by its random seed and scrambled by splitmix64's
// finalizer, a bijection, so no two IDs one process mints collide.
func NewTraceID() string {
	x := idSeed + idCount.Add(1)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	var b [8]byte
	var h [16]byte
	binary.BigEndian.PutUint64(b[:], x)
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// ValidTraceID reports whether id is acceptable as a propagated trace ID:
// 1–64 characters drawn from [0-9a-zA-Z_-]. Anything else (empty, huge, or
// containing exposition-hostile characters) is rejected and the server mints
// a fresh ID instead.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// StartTrace opens a trace whose root span is named name. An empty or
// invalid id mints a fresh one (propagated IDs are validated so a hostile
// header cannot smuggle arbitrary bytes into logs and explain output).
func StartTrace(id, name string) *Trace {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	tr := &Trace{id: id, origin: clock()}
	tr.next.Store(1)
	root := &tr.first[0]
	root.tr, root.parent, root.name = tr, -1, name
	root.ready.Store(true)
	return tr
}

// at returns arena slot i, making its chunk if grow is set and none exists
// yet; without grow a missing chunk yields nil.
func (t *Trace) at(i int64, grow bool) *Span {
	if i < firstChunk {
		return &t.first[i]
	}
	c := bits.Len64(uint64(i/firstChunk+1)) - 1 // i's chunk: slots from firstChunk·(2^c − 1)
	ch := &t.chunks[c-1]
	p := ch.Load()
	if p == nil {
		if !grow {
			return nil
		}
		fresh := make([]Span, firstChunk<<c)
		if !ch.CompareAndSwap(nil, &fresh) {
			p = ch.Load()
		} else {
			p = &fresh
		}
	}
	return &(*p)[i-firstChunk*(1<<c-1)]
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.first[0]
}

// Spans returns the number of spans started so far, root included: those
// recorded and those dropped.
func (t *Trace) Spans() int64 {
	if t == nil {
		return 0
	}
	return min(t.next.Load(), maxSpans) + t.dropped.Load()
}

// Finish ends the root span (idempotent) and returns the root's duration.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	root := t.Root()
	root.End()
	return time.Duration(root.end.Load() - 1)
}

// Snapshot renders the whole span tree. Open spans (the snapshot may be
// taken mid-request, e.g. for explain output while the root is still
// running) report their duration as "so far". A span still being started
// when the snapshot walks the arena is left out.
func (t *Trace) Snapshot() SpanSnapshot {
	if t == nil {
		return SpanSnapshot{}
	}
	now := clock() - t.origin
	n := min(t.next.Load(), maxSpans)
	nodes := make([]SpanSnapshot, n)
	kids := make([][]int32, n)
	for i := int64(0); i < n; i++ {
		if sp := t.at(i, false); sp != nil && sp.ready.Load() {
			nodes[i] = sp.snapshot(now)
			if sp.parent >= 0 {
				kids[sp.parent] = append(kids[sp.parent], int32(i))
			}
		}
	}
	var tree func(i int32) SpanSnapshot
	tree = func(i int32) SpanSnapshot {
		out := nodes[i]
		for _, c := range kids[i] {
			out.Children = append(out.Children, tree(c))
		}
		return out
	}
	return tree(0)
}

// Trace returns the trace this span belongs to (nil for a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Start opens a child span named name in the next arena slot. On a nil span
// it returns nil — the no-op span — so call sites never branch on "is tracing
// enabled". When the parent already holds maxSpanChildren children, or the
// arena is full, the child is not recorded: the drop is counted in the
// parent's snapshot and Start returns nil, whose End/SetLabel calls are
// harmless.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	if s.children.Add(1) <= maxSpanChildren {
		if i := t.next.Add(1) - 1; i < maxSpans {
			c := t.at(i, true)
			c.tr, c.slot, c.parent, c.name = t, int32(i), s.slot, name
			c.start = clock() - t.origin
			c.ready.Store(true)
			return c
		}
	}
	s.dropped.Add(1)
	t.dropped.Add(1)
	return nil
}

// End closes the span. The first call wins; later calls are no-ops, so
// "defer sp.End()" composes with an explicit early End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end.CompareAndSwap(0, int64(clock()-s.tr.origin)+1)
}

// SetLabel attaches a string attribute; setting a key again replaces it.
func (s *Span) SetLabel(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.nl == spanLabels && s.more == nil {
		s.more = new(spanAttrs)
	}
	var more *[]attr[string]
	if s.more != nil {
		more = &s.more.labels
	}
	s.nl = set(s.labels[:], s.nl, more, k, v)
	s.mu.Unlock()
}

// SetValue attaches a numeric attribute; setting a key again replaces it.
func (s *Span) SetValue(k string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.nv == spanValues && s.more == nil {
		s.more = new(spanAttrs)
	}
	var more *[]attr[int64]
	if s.more != nil {
		more = &s.more.values
	}
	s.nv = set(s.values[:], s.nv, more, k, v)
	s.mu.Unlock()
}

// set sets key k to v among the attributes in use, inline[:n] and then more:
// in place where k is set already, else in the next inline slot or, once
// those are all used, at the end of more, which the caller has allocated by
// then. It returns the inline slots now in use.
func set[T string | int64](inline []attr[T], n uint8, more *[]attr[T], k string, v T) uint8 {
	for i := range inline[:n] {
		if inline[i].k == k {
			inline[i].v = v
			return n
		}
	}
	if int(n) < len(inline) {
		inline[n] = attr[T]{k, v}
		return n + 1
	}
	for i := range *more {
		if (*more)[i].k == k {
			(*more)[i].v = v
			return n
		}
	}
	*more = append(*more, attr[T]{k, v})
	return n
}

// SetError records an error label and closes the span.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetLabel("error", err.Error())
	s.End()
}

// SpanSnapshot is the exported form of one span: offsets are nanoseconds
// from the trace (root span) start, so a rendered tree reads as a timeline.
type SpanSnapshot struct {
	Name            string            `json:"name"`
	StartNS         int64             `json:"start_ns"`
	DurationNS      int64             `json:"duration_ns"`
	Open            bool              `json:"open,omitempty"`
	Labels          map[string]string `json:"labels,omitempty"`
	Values          map[string]int64  `json:"values,omitempty"`
	DroppedChildren int               `json:"dropped_children,omitempty"`
	Children        []SpanSnapshot    `json:"children,omitempty"`
}

// snapshot copies the span, without its children. now, an offset from the
// trace origin, stands in for the end of a span still open.
func (s *Span) snapshot(now time.Duration) SpanSnapshot {
	end := time.Duration(s.end.Load() - 1)
	open := end < 0
	if open {
		end = now
	}
	out := SpanSnapshot{
		Name:            s.name,
		StartNS:         s.start.Nanoseconds(),
		DurationNS:      (end - s.start).Nanoseconds(),
		Open:            open,
		DroppedChildren: int(s.dropped.Load()),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var more spanAttrs
	if s.more != nil {
		more = *s.more
	}
	out.Labels = attrMap(s.labels[:s.nl], more.labels)
	out.Values = attrMap(s.values[:s.nv], more.values)
	return out
}

// attrMap renders attributes as a map, nil when there are none.
func attrMap[T string | int64](inline, more []attr[T]) map[string]T {
	if len(inline) == 0 {
		return nil
	}
	m := make(map[string]T, len(inline)+len(more))
	for _, a := range inline {
		m[a.k] = a.v
	}
	for _, a := range more {
		m[a.k] = a.v
	}
	return m
}

// spanKey is the context key carrying the current span.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span; stages deeper
// in the call tree attach their spans to it via SpanFromContext.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil (the no-op span) when ctx
// is untraced.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
