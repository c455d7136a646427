// Package faults is a deterministic, seedable fault injector for the sample
// warehouse's storage layer. It wraps any storage.Store and applies a
// Schedule — error, corruption and latency decisions per operation — so
// tests can exercise every failure path of the stack (quarantine, partial
// merges, failed catalog writes, crash recovery) reproducibly.
//
// Determinism: Rates decides by hashing (seed, op, sequence, key), so the
// same seed yields the same decisions even when operations race, and sticky
// per-key corruption models bit-rot (a corrupt key stays corrupt). Explicit
// schedules (FailNth, FailKey) pin single failures for targeted tests.
package faults

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

// Op identifies one store operation class.
type Op uint8

// The injectable operation classes.
const (
	OpPut Op = iota
	OpGet
	OpDelete
	OpKeys
	OpPutBlob
	OpGetBlob
	// OpWalAppend and OpWalSync are the write-ahead journal's operation
	// classes (internal/wal): a fault on OpWalAppend makes the journal write
	// a torn prefix of the frame (a deterministic short write) before
	// surfacing the error, and a fault on OpWalSync fails the fsync without
	// syncing — the two crash shapes the recovery path must survive.
	OpWalAppend
	OpWalSync
	// OpDeleteBlob is last so the classes before it keep the numbers Rates
	// hashes into its decisions: seeded schedules replay as before.
	OpDeleteBlob
	numOps
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpKeys:
		return "keys"
	case OpPutBlob:
		return "put_blob"
	case OpGetBlob:
		return "get_blob"
	case OpWalAppend:
		return "wal_append"
	case OpWalSync:
		return "wal_sync"
	case OpDeleteBlob:
		return "delete_blob"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Fault is the injected outcome for one operation: an optional latency
// followed by an optional failure. The zero Fault lets the operation through
// untouched.
type Fault struct {
	Err   error
	Delay time.Duration
}

// Schedule decides deterministically what happens to the seq-th invocation
// (1-based, counted per op) of op on key. Implementations must be safe for
// concurrent use.
type Schedule interface {
	Decide(op Op, seq int64, key string) Fault
}

// ErrInjected is the root cause inside every error the injector fabricates,
// for errors.Is checks in tests.
var ErrInjected = errors.New("faults: injected failure")

// TransientErr fabricates a one-off failure of op on key: the next call may
// succeed.
func TransientErr(op Op, key string) error {
	return fmt.Errorf("%w: transient %s %q", ErrInjected, op, key)
}

// CorruptErr fabricates a permanent corruption error for key.
func CorruptErr(key string) error {
	return &storage.CorruptError{Key: key, Err: fmt.Errorf("%w: bit-rot", ErrInjected)}
}

// mix is SplitMix64, used as the deterministic decision hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKey folds a key string into the decision hash.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// Rates is a probabilistic Schedule. Transient failures are drawn per call;
// corruption is sticky per key (drawn from the key alone), so a corrupted
// key fails every read — modeling bit-rot rather than flaky reads. All draws
// hash the seed, so two Rates with the same parameters make identical
// decisions regardless of goroutine interleaving.
type Rates struct {
	// Seed drives every decision. Two equal seeds agree everywhere.
	Seed uint64
	// Transient is the per-call probability of a one-off error (any op).
	Transient float64
	// Corrupt is the per-key probability that reads of the key permanently
	// fail with a corruption error (OpGet/OpGetBlob only).
	Corrupt float64
	// Delay is a fixed latency injected before every operation (0 = none).
	Delay time.Duration
}

// Decide implements Schedule.
func (r Rates) Decide(op Op, seq int64, key string) Fault {
	f := Fault{Delay: r.Delay}
	if (op == OpGet || op == OpGetBlob) && r.Corrupt > 0 {
		if unit(mix(r.Seed^0xc044ab7^hashKey(key))) < r.Corrupt {
			f.Err = CorruptErr(key)
			return f
		}
	}
	if r.Transient > 0 {
		h := mix(r.Seed ^ uint64(op)<<56 ^ mix(uint64(seq)) ^ hashKey(key))
		if unit(h) < r.Transient {
			f.Err = TransientErr(op, key)
		}
	}
	return f
}

// FailNth fails exactly the N-th call (1-based) of Op with Err, on any key.
type FailNth struct {
	Op  Op
	N   int64
	Err error
}

// Decide implements Schedule.
func (s FailNth) Decide(op Op, seq int64, key string) Fault {
	if op == s.Op && seq == s.N {
		return Fault{Err: s.Err}
	}
	return Fault{}
}

// FailKey fails every call of Op on exactly Key with Err.
type FailKey struct {
	Op  Op
	Key string
	Err error
}

// Decide implements Schedule.
func (s FailKey) Decide(op Op, seq int64, key string) Fault {
	if op == s.Op && key == s.Key {
		return Fault{Err: s.Err}
	}
	return Fault{}
}

// Stats counts what the injector has done, per operation class.
type Stats struct {
	Ops      [numOps]int64 // operations that passed through
	Injected [numOps]int64 // operations that failed by injection
	Delays   int64         // operations delayed
}

// Store wraps an inner storage.Store with a fault schedule, and is one
// itself: OpPut faults Put, PutSample and PutRaw, OpGet faults Get and
// GetRaw, and the blob calls have classes of their own. Safe for concurrent
// use if the inner store is.
type Store[V cmp.Ordered] struct {
	inner    storage.Store[V]
	sched    Schedule
	sleep    func(time.Duration)
	seq      [numOps]atomic.Int64
	ops      [numOps]atomic.Int64
	injected [numOps]atomic.Int64
	delays   atomic.Int64
	o        faultObs
}

// Wrap returns a fault-injecting view of inner under the given schedule.
func Wrap[V cmp.Ordered](inner storage.Store[V], sched Schedule) *Store[V] {
	return &Store[V]{inner: inner, sched: sched, sleep: time.Sleep}
}

// SetSleep replaces the latency-injection sleeper (tests pass a recorder or
// no-op to keep wall-clock time out of the suite).
func (s *Store[V]) SetSleep(fn func(time.Duration)) {
	if fn == nil {
		fn = time.Sleep
	}
	s.sleep = fn
}

// faultObs caches the injector's metric handles:
//
//	faults.injected   injected failures (counter)
//	faults.delays     injected latencies (counter)
type faultObs struct {
	injected *obs.Counter
	delays   *obs.Counter
}

// Instrument implements storage.Store: the injector's counters and the inner
// store's metrics go into reg.
func (s *Store[V]) Instrument(reg *obs.Registry) {
	s.o = faultObs{injected: reg.Counter("faults.injected"), delays: reg.Counter("faults.delays")}
	s.inner.Instrument(reg)
}

// Stats returns a snapshot of the injector's activity.
func (s *Store[V]) Stats() Stats {
	var out Stats
	for i := Op(0); i < numOps; i++ {
		out.Ops[i] = s.ops[i].Load()
		out.Injected[i] = s.injected[i].Load()
	}
	out.Delays = s.delays.Load()
	return out
}

// apply draws the fault for one operation and executes its delay; a non-nil
// return is the injected failure.
func (s *Store[V]) apply(op Op, key string) error {
	seq := s.seq[op].Add(1)
	s.ops[op].Add(1)
	f := s.sched.Decide(op, seq, key)
	if f.Delay > 0 {
		s.delays.Add(1)
		s.o.delays.Inc()
		s.sleep(f.Delay)
	}
	if f.Err != nil {
		s.injected[op].Add(1)
		s.o.injected.Inc()
		return f.Err
	}
	return nil
}

// Put implements storage.Store.
func (s *Store[V]) Put(key string, smp *core.Sample[V]) error {
	if err := s.apply(OpPut, key); err != nil {
		return err
	}
	return s.inner.Put(key, smp)
}

// Get implements storage.Store.
func (s *Store[V]) Get(key string) (*core.Sample[V], error) {
	if err := s.apply(OpGet, key); err != nil {
		return nil, err
	}
	return s.inner.Get(key)
}

// Delete implements storage.Store.
func (s *Store[V]) Delete(key string) error {
	if err := s.apply(OpDelete, key); err != nil {
		return err
	}
	return s.inner.Delete(key)
}

// Keys implements storage.Store.
func (s *Store[V]) Keys(prefix string) ([]string, error) {
	if err := s.apply(OpKeys, prefix); err != nil {
		return nil, err
	}
	return s.inner.Keys(prefix)
}

// PutSample implements storage.Store.
func (s *Store[V]) PutSample(key string, smp *core.Sample[V]) ([]byte, error) {
	if err := s.apply(OpPut, key); err != nil {
		return nil, err
	}
	return s.inner.PutSample(key, smp)
}

// PutRaw implements storage.Store.
func (s *Store[V]) PutRaw(key string, data []byte) error {
	if err := s.apply(OpPut, key); err != nil {
		return err
	}
	return s.inner.PutRaw(key, data)
}

// GetRaw implements storage.Store.
func (s *Store[V]) GetRaw(key string) ([]byte, error) {
	if err := s.apply(OpGet, key); err != nil {
		return nil, err
	}
	return s.inner.GetRaw(key)
}

// DecodeRaw implements storage.Store; it touches no stored state and is never
// faulted.
func (s *Store[V]) DecodeRaw(data []byte) (*core.Sample[V], error) { return s.inner.DecodeRaw(data) }

// PutBlob implements storage.Store.
func (s *Store[V]) PutBlob(name string, data []byte) error {
	if err := s.apply(OpPutBlob, name); err != nil {
		return err
	}
	return s.inner.PutBlob(name, data)
}

// GetBlob implements storage.Store.
func (s *Store[V]) GetBlob(name string) ([]byte, error) {
	if err := s.apply(OpGetBlob, name); err != nil {
		return nil, err
	}
	return s.inner.GetBlob(name)
}

// DeleteBlob implements storage.Store.
func (s *Store[V]) DeleteBlob(name string) error {
	if err := s.apply(OpDeleteBlob, name); err != nil {
		return err
	}
	return s.inner.DeleteBlob(name)
}

var (
	_ storage.Store[int64] = (*Store[int64])(nil)
	_ Schedule             = Rates{}
	_ Schedule             = FailNth{}
	_ Schedule             = FailKey{}
)
