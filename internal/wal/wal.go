// Package wal is the segmented write-ahead ingest journal of the sample
// warehouse's serving layer. Every ingest batch the server acknowledges is
// first appended here as CRC32C-framed records and fsynced, so a kill -9
// between the acknowledgment and the durable roll-in of the finished sample
// loses nothing: on restart the journal's sealed but uncommitted entries are
// replayed through the data set's sampler family (Warehouse.ReplayJournal)
// and the partitions the clients were told exist are rebuilt exactly once.
//
// Entry lifecycle, as driven by the ingest handler:
//
//	e, _ := log.Begin(ds, part, idemKey, expected)   // frame: begin
//	e.Append(values)                                 // frame: values (chunked)
//	e.Seal(total)                                    // frame: seal + fsync — the ack barrier
//	... roll the finalized sample into the warehouse ...
//	e.Commit()                                       // frame: commit — entry GC-able
//
// Seal is the durability point: once it returns, the batch survives a crash
// and the HTTP response may promise so. Commit records that the sample
// itself was durably rolled in; committed entries are never replayed, and a
// segment whose entries are all committed (or dead) is deleted. Recovery
// truncates torn tails (a crash mid-append) back to the last valid frame,
// discards unsealed entries (the client never got an ack; it will retry),
// and returns sealed-uncommitted entries for replay.
//
// Fault injection: an optional faults.Schedule is consulted on every append
// (faults.OpWalAppend — an injected error writes a deterministic torn prefix
// of the frame, modeling a short write) and every fsync (faults.OpWalSync —
// the sync fails without syncing), so tests exercise the exact crash shapes
// recovery must survive.
package wal

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

// Policy names the journal's one fsync policy. The benchmark harness's
// stack (bench/stack.go) names it, so the type, SyncAlways and
// Options.Policy stay although there is nothing to choose between.
type Policy uint8

// SyncAlways fsyncs on every Seal, before the ack leaves the server: an
// acknowledged batch survives power loss.
const SyncAlways Policy = 0

// Options tunes a journal.
type Options struct {
	// Policy is always SyncAlways; see Policy.
	Policy Policy
	// Schedule, when non-nil, injects deterministic faults into appends and
	// fsyncs (see the package comment).
	Schedule faults.Schedule
	// Registry routes wal.* metrics; nil leaves the journal uninstrumented.
	Registry *obs.Registry
}

// Segment file format constants.
const (
	// segmentBytes is the soft segment-roll threshold. One entry's frames
	// never span segments, so a single huge batch may overshoot it.
	segmentBytes = 64 << 20

	segMagic   = 0x5357414c // "SWAL"
	segVersion = 1
	headerSize = 5 // u32 magic + u8 version

	frameBegin  = 1
	frameValues = 2
	frameSeal   = 3
	frameCommit = 4

	// frameHeader is u32 payload length + u8 type; frameOverhead adds the
	// trailing u32 crc32c.
	frameHeader   = 5
	frameOverhead = frameHeader + 4

	segExt = ".wal"
)

// crcTable is the Castagnoli polynomial — the same taxonomy as the storage
// codec's sample checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walObs caches the journal's metric handles (see README.md §Metrics
// catalog):
//
//	wal.appends      frames appended (counter)
//	wal.bytes        bytes appended (counter)
//	wal.fsyncs       segment fsyncs (counter)
//	wal.seals        entries sealed — the ack barrier (counter)
//	wal.commits      entries committed after durable roll-in (counter)
//	wal.replays      sealed-uncommitted entries recovered for replay (counter)
//	wal.truncations  torn tails truncated during recovery (counter)
//	wal.torn_frames  frames lost to torn tails (counter)
//	wal.gc_segments  fully committed segments deleted (counter)
//	wal.segments     live segment files (gauge)
type walObs struct {
	appends     *obs.Counter
	bytes       *obs.Counter
	fsyncs      *obs.Counter
	seals       *obs.Counter
	commits     *obs.Counter
	replays     *obs.Counter
	truncations *obs.Counter
	tornFrames  *obs.Counter
	gcSegments  *obs.Counter
	segments    *obs.Gauge
}

func newWALObs(reg *obs.Registry) walObs {
	return walObs{
		appends:     reg.Counter("wal.appends"),
		bytes:       reg.Counter("wal.bytes"),
		fsyncs:      reg.Counter("wal.fsyncs"),
		seals:       reg.Counter("wal.seals"),
		commits:     reg.Counter("wal.commits"),
		replays:     reg.Counter("wal.replays"),
		truncations: reg.Counter("wal.truncations"),
		tornFrames:  reg.Counter("wal.torn_frames"),
		gcSegments:  reg.Counter("wal.gc_segments"),
		segments:    reg.Gauge("wal.segments"),
	}
}

// segment is one journal file and its liveness bookkeeping.
type segment struct {
	seq  uint64
	path string
	// live counts sealed-or-inflight entries begun in this segment that are
	// not yet committed (or aborted). A non-active segment with live == 0
	// holds nothing recovery would need and is deleted.
	live int
}

// entryState is the in-memory lifecycle of one journaled entry.
type entryState struct {
	seg    *segment
	sealed bool
	done   bool // committed or aborted
}

// Log is a segmented write-ahead journal for values of type V. It is safe
// for concurrent use; appends from concurrent entries interleave in the
// active segment and are disambiguated by entry ID on recovery.
type Log[V cmp.Ordered] struct {
	dir   string
	codec storage.ValueCodec[V]
	opts  Options
	// rollBytes is the segment-roll threshold: segmentBytes (tests lower it
	// to roll within a few entries).
	rollBytes int64
	// varints is set when codec is storage.Int64Codec, whose values frames
	// Append writes directly.
	varints bool

	mu        sync.Mutex
	f         *os.File // active segment; nil until first append
	broken    bool     // active segment had a failed/torn append; roll before reuse
	segs      []*segment
	entries   map[uint64]*entryState
	nextEntry uint64
	nextSeq   uint64
	activeSeq uint64
	written   int64 // bytes written to the active segment
	closed    bool

	// syncMu serializes fsyncs; concurrent Seals coalesce: whoever enters
	// first syncs for everyone whose frames were already appended.
	syncMu    sync.Mutex
	syncedSeq uint64
	syncedOff int64

	appendSeq atomic.Int64 // fault-injection sequence numbers
	syncSeq   atomic.Int64

	o walObs
}

// RecoveredEntry is one sealed-but-uncommitted batch found at Open time: the
// server acknowledged it (or was about to) but its sample never durably
// rolled in. The caller replays it through the data set's sampler and then
// commits it.
type RecoveredEntry[V cmp.Ordered] struct {
	ID        uint64
	Dataset   string
	Partition string
	// Key is the client's Idempotency-Key, empty if none was supplied.
	Key      string
	Expected int64
	Values   []V
}

// Open opens (creating if needed) the journal rooted at dir and recovers its
// state: torn tails are truncated back to the last valid frame, fully
// committed segments are deleted, and every sealed-uncommitted entry is
// returned for replay. The caller must replay and Commit (or explicitly
// abandon) the returned entries before new load arrives, or they will be
// replayed again after the next crash.
func Open[V cmp.Ordered](dir string, codec storage.ValueCodec[V], opts Options) (*Log[V], []RecoveredEntry[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	_, varints := any(codec).(storage.Int64Codec)
	l := &Log[V]{
		dir:       dir,
		codec:     codec,
		varints:   varints,
		opts:      opts,
		rollBytes: segmentBytes,
		entries:   make(map[uint64]*entryState),
		nextEntry: 1,
		nextSeq:   1,
		o:         newWALObs(opts.Registry),
	}
	recovered, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	return l, recovered, nil
}

// Dir returns the journal's root directory.
func (l *Log[V]) Dir() string { return l.dir }

// Entry is one in-flight journaled ingest batch.
type Entry[V cmp.Ordered] struct {
	l  *Log[V]
	id uint64
	// key routes fault-schedule decisions ("dataset/partition").
	key    string
	sealed bool
	// frame is the last values frame, kept so the next Append encodes into
	// its buffer instead of growing a fresh one.
	frame []byte
}

// ID returns the journal-wide entry ID.
func (e *Entry[V]) ID() uint64 { return e.id }

// Begin opens a new journal entry for one ingest batch into ds/part. key is
// the client's idempotency key (may be empty); expected is the expected
// partition size recorded for HB replay.
func (l *Log[V]) Begin(ds, part, key string, expected int64) (*Entry[V], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("wal: begin on closed journal")
	}
	id := l.nextEntry
	l.nextEntry++
	payload := binary.AppendUvarint(nil, id)
	payload = appendString(payload, ds)
	payload = appendString(payload, part)
	payload = appendString(payload, key)
	payload = binary.AppendVarint(payload, expected)
	fkey := ds + "/" + part
	if err := l.appendLocked(frameBegin, payload, fkey, true); err != nil {
		return nil, err
	}
	seg := l.segs[len(l.segs)-1]
	seg.live++
	l.entries[id] = &entryState{seg: seg}
	return &Entry[V]{l: l, id: id, key: fkey}, nil
}

// Append journals one chunk of the batch's values.
func (e *Entry[V]) Append(values []V) error {
	if len(values) == 0 {
		return nil
	}
	if e.sealed {
		return fmt.Errorf("wal: append to sealed entry %d", e.id)
	}
	// The frame is encoded once, in place: header, payload, then its CRC.
	var header [frameHeader]byte
	frame := append(e.frame[:0], header[:]...)
	frame = binary.AppendUvarint(frame, e.id)
	frame = binary.AppendUvarint(frame, uint64(len(values)))
	if ints, ok := any(values).([]int64); ok && e.l.varints {
		// Int64Codec.Append, without an interface call per value.
		for _, v := range ints {
			frame = binary.AppendVarint(frame, v)
		}
	} else {
		for _, v := range values {
			frame = e.l.codec.Append(frame, v)
		}
	}
	frame = finishFrame(frameValues, frame)
	e.frame = frame
	e.l.mu.Lock()
	defer e.l.mu.Unlock()
	if e.l.closed {
		return fmt.Errorf("wal: append on closed journal")
	}
	return e.l.writeFrameLocked(frame, e.key, false)
}

// Seal marks the batch complete with its total value count and fsyncs it.
// When Seal returns nil the batch will survive a crash — this is the barrier
// the ingest handler waits on before acknowledging the client.
func (e *Entry[V]) Seal(total int64) error {
	return e.SealContext(context.Background(), total)
}

// SealContext is Seal recording the durability barrier in the request trace
// when ctx carries an obs span: the fsync that gates the ingest ack appears
// as a wal_fsync child span, separating queue/encode time from disk time in
// explain output. ctx carries only the span — sealing is never canceled
// part-way.
func (e *Entry[V]) SealContext(ctx context.Context, total int64) error {
	if e.sealed {
		return fmt.Errorf("wal: double seal of entry %d", e.id)
	}
	payload := binary.AppendUvarint(nil, e.id)
	payload = binary.AppendVarint(payload, total)
	e.l.mu.Lock()
	if e.l.closed {
		e.l.mu.Unlock()
		return fmt.Errorf("wal: seal on closed journal")
	}
	if err := e.l.appendLocked(frameSeal, payload, e.key, false); err != nil {
		e.l.mu.Unlock()
		return err
	}
	if st := e.l.entries[e.id]; st != nil {
		st.sealed = true
	}
	seq, off := e.l.activeSeq, e.l.written
	e.l.mu.Unlock()
	e.sealed = true
	sp := obs.SpanFromContext(ctx).Start("wal_fsync")
	err := e.l.syncTo(seq, off)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return err
	}
	e.l.o.seals.Inc()
	return nil
}

// Commit records that the entry's sample was durably rolled in; the entry
// will never be replayed and its segment becomes GC-able. Commit frames are
// not fsynced — losing one only costs an idempotent replay.
func (e *Entry[V]) Commit() error {
	payload := binary.AppendUvarint(nil, e.id)
	l := e.l
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.entries[e.id]
	if st == nil || st.done {
		return nil
	}
	if l.closed {
		return fmt.Errorf("wal: commit on closed journal")
	}
	if err := l.appendLocked(frameCommit, payload, e.key, false); err != nil {
		return err
	}
	l.finishLocked(e.id)
	l.o.commits.Inc()
	return nil
}

// Abort abandons an entry that will not be committed (the ingest failed
// before the ack). Its frames stay on disk until segment GC; if unsealed
// they are discarded by recovery anyway. Abort after Commit is a no-op, so
// handlers can `defer e.Abort()`.
func (e *Entry[V]) Abort() {
	l := e.l
	l.mu.Lock()
	defer l.mu.Unlock()
	l.finishLocked(e.id)
}

// finishLocked retires an entry's in-memory state and sweeps GC-able
// segments. Callers hold l.mu.
func (l *Log[V]) finishLocked(id uint64) {
	st := l.entries[id]
	if st == nil || st.done {
		return
	}
	st.done = true
	st.seg.live--
	delete(l.entries, id)
	l.gcLocked()
}

// CommitRecovered commits a replayed entry by ID (recovered entries have no
// live *Entry handle).
func (l *Log[V]) CommitRecovered(id uint64) error {
	payload := binary.AppendUvarint(nil, id)
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.entries[id]
	if st == nil || st.done {
		return nil
	}
	if l.closed {
		return fmt.Errorf("wal: commit on closed journal")
	}
	if err := l.appendLocked(frameCommit, payload, "", false); err != nil {
		return err
	}
	l.finishLocked(id)
	l.o.commits.Inc()
	return nil
}

// gcLocked deletes leading segments that hold nothing recovery would need.
// Callers hold l.mu.
func (l *Log[V]) gcLocked() {
	for len(l.segs) > 0 {
		s := l.segs[0]
		if s.live > 0 || s.seq == l.activeSeq {
			break
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			break // disk trouble; retry on the next commit
		}
		l.segs = l.segs[1:]
		l.o.gcSegments.Inc()
	}
	l.o.segments.Set(int64(len(l.segs)))
}

// appendLocked frames and writes one record. Callers hold l.mu.
func (l *Log[V]) appendLocked(typ byte, payload []byte, fkey string, mayRoll bool) error {
	frame := make([]byte, frameHeader, frameOverhead+len(payload))
	return l.writeFrameLocked(finishFrame(typ, append(frame, payload...)), fkey, mayRoll)
}

// finishFrame completes a frame built as frameHeader placeholder bytes followed
// by the payload: it writes the payload length and the type into the header
// and appends the CRC of both and the payload.
func finishFrame(typ byte, frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	frame[4] = typ
	return binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, crcTable))
}

// writeFrameLocked writes one complete frame to the active segment, rolling
// segments as needed and applying the fault schedule. mayRoll is set only for
// begin frames so one entry's frames never span segments. Callers hold l.mu.
func (l *Log[V]) writeFrameLocked(frame []byte, fkey string, mayRoll bool) error {
	if l.f == nil || l.broken || (mayRoll && l.written >= l.rollBytes) {
		if err := l.rollLocked(); err != nil {
			return err
		}
	}
	if l.opts.Schedule != nil {
		f := l.opts.Schedule.Decide(faults.OpWalAppend, l.appendSeq.Add(1), fkey)
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Err != nil {
			// Deterministic short write: half the frame lands, the tail is
			// torn — exactly what a crash mid-append leaves behind. The
			// segment is poisoned; the next append rolls to a fresh one.
			n, _ := l.f.Write(frame[:len(frame)/2])
			l.written += int64(n)
			l.broken = true
			return fmt.Errorf("wal: append: %w", f.Err)
		}
	}
	n, err := l.f.Write(frame)
	l.written += int64(n)
	if err != nil {
		l.broken = true
		return fmt.Errorf("wal: append: %w", err)
	}
	l.o.appends.Inc()
	l.o.bytes.Add(int64(len(frame)))
	return nil
}

// rollLocked syncs and closes the active segment (if any) and opens the
// next. Callers hold l.mu.
func (l *Log[V]) rollLocked() error {
	if l.f != nil {
		if !l.broken {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: roll: sync: %w", err)
			}
			l.o.fsyncs.Inc()
		}
		_ = l.f.Close()
		l.f = nil
	}
	seq := l.nextSeq
	l.nextSeq++
	path := filepath.Join(l.dir, fmt.Sprintf("%016x%s", seq, segExt))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], segMagic)
	hdr[4] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	// The new segment's directory entry must survive a crash or the frames
	// inside it are unreachable.
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.broken = false
	l.activeSeq = seq
	l.written = headerSize
	l.segs = append(l.segs, &segment{seq: seq, path: path})
	l.o.segments.Set(int64(len(l.segs)))
	return nil
}

// syncTo fsyncs the active segment if frames up to (seq, off) are not yet
// known durable. Concurrent callers coalesce onto one fsync.
func (l *Log[V]) syncTo(seq uint64, off int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq > seq || (l.syncedSeq == seq && l.syncedOff >= off) {
		return nil
	}
	l.mu.Lock()
	f, cseq, w := l.f, l.activeSeq, l.written
	l.mu.Unlock()
	if cseq > seq {
		// The target segment was rolled away; the roll already synced it.
		l.syncedSeq, l.syncedOff = cseq, 0
		return nil
	}
	if f == nil {
		return nil
	}
	if l.opts.Schedule != nil {
		fa := l.opts.Schedule.Decide(faults.OpWalSync, l.syncSeq.Add(1), "")
		if fa.Delay > 0 {
			time.Sleep(fa.Delay)
		}
		if fa.Err != nil {
			return fmt.Errorf("wal: sync: %w", fa.Err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.o.fsyncs.Inc()
	l.syncedSeq, l.syncedOff = cseq, w
	return nil
}

// Sync flushes everything appended so far.
func (l *Log[V]) Sync() error {
	l.mu.Lock()
	seq, off := l.activeSeq, l.written
	l.mu.Unlock()
	return l.syncTo(seq, off)
}

// Close syncs and closes the active segment. The journal is unusable
// afterwards.
func (l *Log[V]) Close() error {
	err := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.closed = true
	return err
}

// appendString encodes a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString decodes a uvarint-length-prefixed string from buf, returning
// the string and bytes consumed.
func readString(buf []byte) (string, int, error) {
	n, c := binary.Uvarint(buf)
	if c <= 0 {
		return "", 0, fmt.Errorf("wal: malformed string length")
	}
	if uint64(len(buf)-c) < n {
		return "", 0, fmt.Errorf("wal: truncated string")
	}
	return string(buf[c : c+int(n)]), c + int(n), nil
}

// syncDir fsyncs a directory so freshly created or removed segment files
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}
