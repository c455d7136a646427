// Package storage persists finalized samples: a compact varint-based binary
// codec for Sample values plus the one Store contract, kept in memory or in
// files with atomic replace.
// This is the durable layer of the sample warehouse — per-partition samples
// are written as they are rolled in and read back on demand for merging
// (paper Figure 1: samples "are sent to the sample warehouse, where they may
// be subsequently retrieved and merged in various ways").
package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
)

// ValueCodec serializes sample values of type V. Implementations must be
// symmetric: Decode(Encode(v)) == v.
type ValueCodec[V cmp.Ordered] interface {
	// Append encodes v onto buf and returns the extended buffer.
	Append(buf []byte, v V) []byte
	// Read decodes one value from buf, returning the value and the number
	// of bytes consumed, or an error on malformed input. The value may not
	// share memory with buf, which the caller reuses (see DecodeSample).
	Read(buf []byte) (V, int, error)
}

// Int64Codec encodes int64 values with zig-zag varints.
type Int64Codec struct{}

// Append implements ValueCodec.
func (Int64Codec) Append(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// Read implements ValueCodec.
func (Int64Codec) Read(buf []byte) (int64, int, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("storage: malformed varint value")
	}
	return v, n, nil
}

// StringCodec encodes strings with a uvarint length prefix.
type StringCodec struct{}

// Append implements ValueCodec.
func (StringCodec) Append(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// Read implements ValueCodec.
func (StringCodec) Read(buf []byte) (string, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return "", 0, fmt.Errorf("storage: malformed string length")
	}
	if uint64(len(buf)-n) < l {
		return "", 0, fmt.Errorf("storage: truncated string value")
	}
	return string(buf[n : n+int(l)]), n + int(l), nil
}

// Codec format constants.
const (
	magic = 0x53574831 // "SWH1"
	// version 2 appends a CRC32C checksum of the whole payload; version 1
	// (no checksum) is still decoded for files written before the bump.
	version       = 2
	legacyVersion = 1
	checksumSize  = 4
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSample serializes a sample. The layout is:
//
//	magic u32 | version u8 | kind u8 | parentSize varint | q float64 |
//	footprint varint | valueBytes varint | countBytes varint |
//	exceedProb float64 | entryCount uvarint | {value, count varint}... |
//	crc32c u32 (over all preceding bytes)
//
// Entries are written in ascending value order whatever order the sample
// holds them in, so equal multisets encode to equal bytes. A store sorts the
// sample itself before it encodes (sortForPut); only a direct caller's
// unordered sample costs the sorted copy here.
func EncodeSample[V cmp.Ordered](s *core.Sample[V], vc ValueCodec[V]) ([]byte, error) {
	if s == nil || s.Hist == nil {
		return nil, fmt.Errorf("storage: nil sample")
	}
	hist := s.Hist
	if !hist.IsSorted() {
		hist = hist.Clone()
		hist.Sort()
	}
	buf := make([]byte, 0, 64+s.Hist.Distinct()*10)
	buf = binary.BigEndian.AppendUint32(buf, magic)
	buf = append(buf, version, byte(s.Kind))
	buf = binary.AppendVarint(buf, s.ParentSize)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Q))
	buf = binary.AppendVarint(buf, s.Config.FootprintBytes)
	buf = binary.AppendVarint(buf, s.Config.SizeModel.ValueBytes)
	buf = binary.AppendVarint(buf, s.Config.SizeModel.CountBytes)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Config.ExceedProb))
	buf = binary.AppendUvarint(buf, uint64(hist.Distinct()))
	hist.Each(func(v V, c int64) {
		buf = vc.Append(buf, v)
		buf = binary.AppendVarint(buf, c)
	})
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// DecodeSample parses a sample serialized by EncodeSample. Entries may come
// in any order — files written before value order was the stored order, or
// adopted from a peer that still writes them so, decode to the same multiset
// — and the sample holds them in the order of the file.
//
// The sample keeps no reference to buf: every value is copied out of it by
// vc.Read, so a caller may reuse buf once DecodeSample returns (FileStore.Get
// reads into a pooled buffer).
func DecodeSample[V cmp.Ordered](buf []byte, vc ValueCodec[V]) (*core.Sample[V], error) {
	fail := func(msg string) (*core.Sample[V], error) {
		return nil, fmt.Errorf("storage: decode: %s", msg)
	}
	if len(buf) < 6 {
		return fail("short header")
	}
	if binary.BigEndian.Uint32(buf) != magic {
		return fail("bad magic")
	}
	switch buf[4] {
	case version:
		// Verify and strip the trailing checksum before any parsing, so a
		// bit-flip anywhere is caught even where the varint grammar would
		// happen to still parse.
		if len(buf) < 6+checksumSize {
			return fail("short checksum")
		}
		body := buf[:len(buf)-checksumSize]
		want := binary.BigEndian.Uint32(buf[len(buf)-checksumSize:])
		if got := crc32.Checksum(body, crcTable); got != want {
			return fail(fmt.Sprintf("checksum mismatch: computed %08x, stored %08x", got, want))
		}
		buf = body
	case legacyVersion:
		// Pre-checksum format: parse as-is.
	default:
		return fail(fmt.Sprintf("unsupported version %d", buf[4]))
	}
	kind := core.Kind(buf[5])
	parentSize, pos, ok := varintAt(buf, 6)
	if !ok {
		return fail("parent size")
	}
	q, pos, ok := float64At(buf, pos)
	if !ok {
		return fail("q")
	}
	footprint, pos, ok := varintAt(buf, pos)
	if !ok {
		return fail("footprint")
	}
	valueBytes, pos, ok := varintAt(buf, pos)
	if !ok {
		return fail("value bytes")
	}
	countBytes, pos, ok := varintAt(buf, pos)
	if !ok {
		return fail("count bytes")
	}
	exceedProb, pos, ok := float64At(buf, pos)
	if !ok {
		return fail("exceed prob")
	}
	entryCount, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return fail("entry count")
	}
	pos += n

	model := histogram.SizeModel{ValueBytes: valueBytes, CountBytes: countBytes}
	// Every entry takes at least two bytes (a value and a count), so what is
	// left of buf bounds how many a header can honestly promise: a hostile
	// entry count reserves no more than the input could fill.
	entries := make([]histogram.Entry[V], 0, min(entryCount, uint64(len(buf)-pos)/2))
	// No value may appear twice. While the file is in value order, each value
	// strictly greater than the one before is that check, and no set is
	// built; from the first pair that is not, every value read so far goes
	// into one and the rest of the file is checked against it.
	var seen map[V]struct{}
	var prev V
	// One pass reads each entry, checks it and sums what the histogram
	// would otherwise walk the entries again for.
	var size, fp int64
	for i := uint64(0); i < entryCount; i++ {
		v, n, err := vc.Read(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("storage: decode entry %d: %w", i, err)
		}
		pos += n
		// The count is a zig-zag varint, nearly always one byte (a count of
		// 1 is 0x02): that byte is decoded here, anything longer by Varint.
		var c int64
		if pos < len(buf) && buf[pos] < 0x80 {
			c = int64(buf[pos]>>1) ^ -int64(buf[pos]&1)
			pos++
		} else if c, pos, ok = varintAt(buf, pos); !ok {
			return fail(fmt.Sprintf("entry %d count", i))
		}
		if c < 1 {
			return fail(fmt.Sprintf("entry %d has count %d", i, c))
		}
		// The counts may not sum past the parent size — nor, so, past int64.
		if c > parentSize-size {
			return fail(fmt.Sprintf("entry %d takes the sample past parent size %d", i, parentSize))
		}
		size += c
		fp += model.PairBytes(c)
		if seen == nil && i > 0 && cmp.Compare(prev, v) >= 0 {
			seen = make(map[V]struct{}, cap(entries))
			for _, e := range entries {
				seen[e.Value] = struct{}{}
			}
		}
		if seen != nil {
			// The i values before this one are distinct and all in the set:
			// a set that did not grow already held v (one map operation).
			if seen[v] = struct{}{}; uint64(len(seen)) != i+1 {
				return fail(fmt.Sprintf("duplicate value in entry %d", i))
			}
		}
		entries = append(entries, histogram.Entry[V]{Value: v, Count: c})
		prev = v
	}
	if pos != len(buf) {
		return fail(fmt.Sprintf("%d trailing bytes", len(buf)-pos))
	}
	s := &core.Sample[V]{
		Kind:       kind,
		Hist:       histogram.FromSummedEntries(model, entries, size, fp),
		ParentSize: parentSize,
		Q:          q,
		Config: core.Config{
			FootprintBytes: footprint,
			SizeModel:      model,
			ExceedProb:     exceedProb,
		},
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("storage: decoded sample invalid: %w", err)
	}
	return s, nil
}

// varintAt reads the zig-zag varint at buf[pos:], returning it and the
// position after it, or false if none is there.
func varintAt(buf []byte, pos int) (int64, int, bool) {
	v, n := binary.Varint(buf[pos:])
	return v, pos + max(n, 0), n > 0
}

// float64At reads the big-endian float64 at buf[pos:], returning it and the
// position after it, or false if fewer than 8 bytes are left.
func float64At(buf []byte, pos int) (float64, int, bool) {
	if len(buf)-pos < 8 {
		return 0, pos, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[pos:])), pos + 8, true
}
