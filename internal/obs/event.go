package obs

import (
	"sync"
	"time"
)

// Event types emitted by the instrumented warehouse stack.
const (
	// EvPhaseTransition: a hybrid sampler crossed a phase boundary
	// (exhaustive→Bernoulli, exhaustive→reservoir or Bernoulli→reservoir).
	// Labels: "from", "to". Values: "seen", "sample_size", "footprint".
	EvPhaseTransition = "phase_transition"
	// EvPurge: a compact sample was subsampled in place. Labels: "kind"
	// ("bernoulli" or "reservoir"). Values: "before", "after", "seen".
	EvPurge = "purge"
	// EvFinalize: a sampler produced its finished sample. Labels: "kind".
	// Values: "seen", "sample_size", "footprint".
	EvFinalize = "finalize"
	// EvRollIn / EvRollOut: a partition sample entered / left the warehouse.
	// Values (roll-in): "sample_size", "parent_size", "footprint".
	EvRollIn  = "roll_in"
	EvRollOut = "roll_out"
	// EvMerge: the warehouse produced a merged sample. Values: "inputs",
	// "sample_size", "parent_size", "ns".
	EvMerge = "merge"
	// EvPartitionCut: a stream partitioner finalized one partition.
	// Values: "index", "seen", "sample_size".
	EvPartitionCut = "partition_cut"
	// EvError: an operation failed. Labels: "op", "error".
	EvError = "error"
	// EvQuarantine: a corrupt sample file was renamed aside so it will
	// never be half-decoded again. Labels: "key".
	EvQuarantine = "quarantine"
	// EvPartialMerge: a degraded merge skipped unreadable partitions.
	// Values: "requested", "merged", "skipped".
	EvPartialMerge = "partial_merge"
	// EvRecovery: a warehouse rebuilt its state from the durable manifest.
	// Values: "datasets", "partitions", "dangling", "orphans".
	EvRecovery = "recovery"
	// EvCacheEvict: the sample cache dropped an entry to stay inside its
	// byte budget. Labels: "key". Values: "footprint".
	EvCacheEvict = "cache_evict"
	// EvShed: the serving layer's admission control rejected a request
	// because the queue was full or the queue wait expired. Labels: "route".
	// Values: "inflight".
	EvShed = "shed"
	// EvDrain: the server began (or finished) graceful drain. Labels:
	// "stage" ("begin" or "done"). Values (done): "served".
	EvDrain = "drain"
	// EvWALReplay: startup recovery replayed one journaled ingest batch that
	// was acknowledged but never durably rolled in. Labels: "key"
	// (idempotency key, when the client supplied one). Values: "values".
	EvWALReplay = "wal_replay"
	// EvWALTruncate: recovery found a torn tail (crash mid-append) in a
	// journal segment and truncated it back to the last valid frame.
	// Labels: "segment". Values: "offset", "lost_bytes".
	EvWALTruncate = "wal_truncate"
	// EvSlowQuery: a request exceeded the server's slow-query threshold and
	// its span tree was recorded in the slow-query log. Labels: "route",
	// "trace_id". Values: "ns".
	EvSlowQuery = "slow_query"
	// EvRepairPull: anti-entropy pulled a missing or stale partition copy
	// from a replica peer. Labels: "source" (shard id), "trigger" ("sweep"
	// or "read_repair"). Values: "bytes".
	EvRepairPull = "repair_pull"
	// EvHintReplay: a hinted-handoff write was delivered to its recovered
	// target replica. Labels: "target" (shard id), "kind" ("ingest" or
	// "tombstone"). Values: "values".
	EvHintReplay = "hint_replay"
)

// Event is one structured trace record. Component identifies the emitting
// subsystem ("core.hb", "warehouse", ...); Dataset and Partition carry the
// warehouse coordinates when known. Labels hold small string attributes and
// Values numeric ones; both may be nil. Seq and Time are stamped by
// Registry.Emit.
type Event struct {
	Seq       int64             `json:"seq"`
	Time      time.Time         `json:"time"`
	Type      string            `json:"type"`
	Component string            `json:"component,omitempty"`
	Dataset   string            `json:"dataset,omitempty"`
	Partition string            `json:"partition,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
	Values    map[string]int64  `json:"values,omitempty"`
}

// EventSink receives emitted events. Implementations must be safe for
// concurrent use; Emit is called synchronously from instrumented code paths
// and must not block.
type EventSink interface {
	Emit(Event)
}

// FuncSink adapts a function to the EventSink interface.
type FuncSink func(Event)

// Emit implements EventSink.
func (f FuncSink) Emit(e Event) { f(e) }

// MemorySink retains the most recent events in a fixed-capacity ring
// buffer. It is safe for concurrent use.
type MemorySink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
}

// NewMemorySink returns a sink retaining up to capacity events (minimum 1).
func NewMemorySink(capacity int) *MemorySink {
	if capacity < 1 {
		capacity = 1
	}
	return &MemorySink{buf: make([]Event, 0, capacity)}
}

// Emit implements EventSink.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.total++
}

// Events returns the retained events, oldest first.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total returns the number of events ever emitted into the sink (retained
// or overwritten).
func (s *MemorySink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
