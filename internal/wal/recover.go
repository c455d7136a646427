package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// scanFrames walks the frames of one segment's bytes (header excluded) and
// calls fn for each frame whose CRC verifies. It returns the number of bytes
// covered by valid frames and whether a torn tail (truncated or corrupt
// trailing bytes) follows them. A frame-payload decode error from fn aborts
// the scan.
func scanFrames(data []byte, fn func(typ byte, payload []byte) error) (valid int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameOverhead {
			return int64(off), true, nil
		}
		plen := int(binary.BigEndian.Uint32(rest[:4]))
		if len(rest) < frameOverhead+plen {
			return int64(off), true, nil
		}
		body := rest[:5+plen]
		want := binary.BigEndian.Uint32(rest[5+plen : frameOverhead+plen])
		if crc32.Checksum(body, crcTable) != want {
			return int64(off), true, nil
		}
		if fn != nil {
			if err := fn(body[4], body[5:]); err != nil {
				return int64(off), false, err
			}
		}
		off += frameOverhead + plen
	}
	return int64(off), false, nil
}

// recEntry accumulates one entry's frames during recovery.
type recEntry[V cmp.Ordered] struct {
	meta   RecoveredEntry[V]
	seg    *segment
	sealed bool
	total  int64
}

// recover scans the journal directory, truncates torn tails, deletes fully
// committed segments and primes the log's in-memory state. It returns the
// sealed-uncommitted entries in begin order. Called from Open before any
// concurrent use, so no locking.
func (l *Log[V]) recover() ([]RecoveredEntry[V], error) {
	names, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}
	begun := make(map[uint64]*recEntry[V])
	committed := make(map[uint64]bool)
	var order []uint64
	var maxID uint64
	for _, name := range names {
		path := filepath.Join(l.dir, name)
		seq, ok := parseSegName(name)
		if !ok {
			continue
		}
		if seq >= l.nextSeq {
			l.nextSeq = seq + 1
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		seg := &segment{seq: seq, path: path}
		headerOK := len(data) >= headerSize &&
			binary.BigEndian.Uint32(data[:4]) == segMagic && data[4] == segVersion
		var valid int64
		var tornAt int64
		torn := true // an unreadable header makes the whole file a torn tail
		if headerOK {
			var ferr error
			valid, torn, ferr = scanFrames(data[headerSize:], func(typ byte, payload []byte) error {
				return l.replayFrame(seg, typ, payload, begun, committed, &order)
			})
			if ferr != nil {
				return nil, fmt.Errorf("wal: segment %s: %w", name, ferr)
			}
			tornAt = headerSize + valid
		}
		if torn {
			if err := os.Truncate(path, tornAt); err != nil {
				return nil, fmt.Errorf("wal: truncate torn segment %s: %w", name, err)
			}
			l.o.truncations.Inc()
			l.o.tornFrames.Inc()
		}
		l.segs = append(l.segs, seg)
	}

	// Sealed-uncommitted entries are the survivors clients were promised;
	// everything else begun is dead (unsealed means no ack ever left, the
	// client will retry). Liveness per segment counts only the survivors.
	var out []RecoveredEntry[V]
	for _, id := range order {
		re := begun[id]
		if id > maxID {
			maxID = id
		}
		if committed[id] || !re.sealed {
			continue
		}
		if re.total != int64(len(re.meta.Values)) {
			// A sealed entry whose journaled values disagree with its sealed
			// total should be impossible (frames are sequential and CRC'd);
			// treat it as damage and drop rather than replay a wrong batch.
			l.o.tornFrames.Inc()
			continue
		}
		re.seg.live++
		l.entries[id] = &entryState{seg: re.seg, sealed: true}
		out = append(out, re.meta)
		l.o.replays.Inc()
	}
	// Commit frames can outlive their begin frames (the begin's segment was
	// GC'd); count them toward the ID watermark too, or a reissued ID could
	// collide with a stale commit frame and mask a future entry as committed.
	for id := range committed {
		if id > maxID {
			maxID = id
		}
	}
	if maxID >= l.nextEntry {
		l.nextEntry = maxID + 1
	}

	// Drop segments that hold nothing replayable. There is no active segment
	// yet (the first Begin opens a fresh one), so any live == 0 segment goes.
	kept := l.segs[:0]
	for _, s := range l.segs {
		if s.live > 0 {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("wal: gc segment: %w", err)
		}
		l.o.gcSegments.Inc()
	}
	l.segs = kept
	l.o.segments.Set(int64(len(l.segs)))
	return out, nil
}

// replayFrame folds one valid frame into the recovery state.
func (l *Log[V]) replayFrame(seg *segment, typ byte, payload []byte, begun map[uint64]*recEntry[V], committed map[uint64]bool, order *[]uint64) error {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("malformed entry id in frame type %d", typ)
	}
	rest := payload[n:]
	switch typ {
	case frameBegin:
		re := &recEntry[V]{seg: seg}
		re.meta.ID = id
		var err error
		var c int
		if re.meta.Dataset, c, err = readString(rest); err != nil {
			return err
		}
		rest = rest[c:]
		if re.meta.Partition, c, err = readString(rest); err != nil {
			return err
		}
		rest = rest[c:]
		if re.meta.Key, c, err = readString(rest); err != nil {
			return err
		}
		rest = rest[c:]
		exp, c := binary.Varint(rest)
		if c <= 0 {
			return fmt.Errorf("malformed expected count in begin frame")
		}
		re.meta.Expected = exp
		begun[id] = re
		*order = append(*order, id)
	case frameValues:
		re := begun[id]
		count, c := binary.Uvarint(rest)
		if c <= 0 {
			return fmt.Errorf("malformed value count in values frame")
		}
		rest = rest[c:]
		if re == nil || re.sealed {
			// A values frame for an unknown (GC'd begin) or sealed entry:
			// nothing to rebuild, skip it.
			return nil
		}
		for i := uint64(0); i < count; i++ {
			v, c, err := l.codec.Read(rest)
			if err != nil {
				return fmt.Errorf("decode journaled value: %w", err)
			}
			rest = rest[c:]
			re.meta.Values = append(re.meta.Values, v)
		}
	case frameSeal:
		total, c := binary.Varint(rest)
		if c <= 0 {
			return fmt.Errorf("malformed total in seal frame")
		}
		if re := begun[id]; re != nil {
			re.sealed = true
			re.total = total
		}
	case frameCommit:
		committed[id] = true
	default:
		return fmt.Errorf("unknown frame type %d", typ)
	}
	return nil
}

// listSegments returns the segment file names under dir, in sequence order.
// A missing directory lists as empty.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		if _, ok := parseSegName(e.Name()); !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names) // fixed-width hex, so lexical order == sequence order
	return names, nil
}

// parseSegName extracts a segment's sequence number from its file name.
func parseSegName(name string) (uint64, bool) {
	base := strings.TrimSuffix(name, segExt)
	if len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// EntryInfo is one journaled entry's aggregated state as seen by Inspect.
type EntryInfo struct {
	ID        uint64
	Dataset   string
	Partition string
	Key       string
	Values    int64 // journaled value count
	Sealed    bool
	Committed bool
}

// SegmentInfo is one segment file's state as seen by Inspect.
type SegmentInfo struct {
	Name string
	Path string
	Seq  uint64
	// Size is the file size; ValidBytes is the prefix covered by the header
	// plus valid frames. Torn reports trailing bytes past the last valid
	// frame (Size > ValidBytes) — the crash shape -fix truncates away.
	Size       int64
	ValidBytes int64
	Frames     int
	Torn       bool
	// Begun lists the entry IDs whose begin frame lives in this segment.
	Begun []uint64
}

// DirReport is Inspect's read-only view of a journal directory, consumed by
// `swcli fsck`.
type DirReport struct {
	Segments []SegmentInfo
	// Entries aggregates entry state across all segments (commit frames may
	// live in a later segment than their begin frame).
	Entries map[uint64]*EntryInfo
}

// Orphaned reports whether the segment holds no entry that recovery would
// replay: every entry begun in it is committed (or was never sealed, so it
// is dead). Such segments are deleted by the next swd start; fsck -fix may
// remove them early.
func (r *DirReport) Orphaned(s SegmentInfo) bool {
	if s.Torn {
		return false
	}
	for _, id := range s.Begun {
		e := r.Entries[id]
		if e != nil && e.Sealed && !e.Committed {
			return false
		}
	}
	return true
}

// Pending returns the sealed-uncommitted entries — the batches a restart
// would replay — in ID order.
func (r *DirReport) Pending() []*EntryInfo {
	var out []*EntryInfo
	for _, e := range r.Entries {
		if e.Sealed && !e.Committed {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Inspect scans a journal directory without modifying it (values are counted
// but not decoded, so no codec is needed). A missing directory yields an
// empty report.
func Inspect(dir string) (*DirReport, error) {
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	rep := &DirReport{Entries: make(map[uint64]*EntryInfo)}
	for _, name := range names {
		path := filepath.Join(dir, name)
		seq, _ := parseSegName(name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		si := SegmentInfo{Name: name, Path: path, Seq: seq, Size: int64(len(data))}
		headerOK := len(data) >= headerSize &&
			binary.BigEndian.Uint32(data[:4]) == segMagic && data[4] == segVersion
		if headerOK {
			valid, _, ferr := scanFrames(data[headerSize:], func(typ byte, payload []byte) error {
				si.Frames++
				return inspectFrame(rep, &si, typ, payload)
			})
			if ferr != nil {
				return nil, fmt.Errorf("wal: segment %s: %w", name, ferr)
			}
			si.ValidBytes = headerSize + valid
		}
		si.Torn = si.Size > si.ValidBytes
		rep.Segments = append(rep.Segments, si)
	}
	return rep, nil
}

// inspectFrame folds one frame into an inspection report.
func inspectFrame(rep *DirReport, si *SegmentInfo, typ byte, payload []byte) error {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("malformed entry id in frame type %d", typ)
	}
	rest := payload[n:]
	e := rep.Entries[id]
	if e == nil {
		e = &EntryInfo{ID: id}
		rep.Entries[id] = e
	}
	switch typ {
	case frameBegin:
		var err error
		var c int
		if e.Dataset, c, err = readString(rest); err != nil {
			return err
		}
		rest = rest[c:]
		if e.Partition, c, err = readString(rest); err != nil {
			return err
		}
		rest = rest[c:]
		if e.Key, _, err = readString(rest); err != nil {
			return err
		}
		si.Begun = append(si.Begun, id)
	case frameValues:
		count, c := binary.Uvarint(rest)
		if c <= 0 {
			return fmt.Errorf("malformed value count in values frame")
		}
		e.Values += int64(count)
	case frameSeal:
		e.Sealed = true
	case frameCommit:
		e.Committed = true
	default:
		return fmt.Errorf("unknown frame type %d", typ)
	}
	return nil
}

// TruncateTorn truncates a torn segment back to its last valid frame, the
// repair `swcli fsck -fix` applies. It returns the bytes removed.
func TruncateTorn(s SegmentInfo) (int64, error) {
	if !s.Torn {
		return 0, nil
	}
	if err := os.Truncate(s.Path, s.ValidBytes); err != nil {
		return 0, fmt.Errorf("wal: truncate %s: %w", s.Name, err)
	}
	return s.Size - s.ValidBytes, nil
}
