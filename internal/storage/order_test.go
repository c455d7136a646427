package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// Value order is the stored order since entries stopped being written in
// insertion order; these tests hold the codec to what that must not change:
// what decodes, what is rejected and with which message, and what a decoder
// from before the change makes of the new bytes.

// legacyOrderFixture is an HR sample (n_F = 64, 47 entries, counts 1–3) as
// the last commit before the change encoded it: entries in insertion order.
const legacyOrderFixture = "testdata/legacy-order.sample"

// parentDecode is DecodeSample as it stood before the change, kept as the
// reference: it builds the histogram by inserting, and its duplicate check is
// a lookup in the set of every value read so far.
func parentDecode(buf []byte) (*core.Sample[int64], error) {
	fail := func(msg string) (*core.Sample[int64], error) {
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
	default:
		return fail(fmt.Sprintf("unsupported version %d", buf[4]))
	}
	kind := core.Kind(buf[5])
	pos := 6
	readVarint := func() (int64, bool) {
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	readFloat := func() (float64, bool) {
		if len(buf)-pos < 8 {
			return 0, false
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[pos:]))
		pos += 8
		return f, true
	}
	parentSize, ok := readVarint()
	if !ok {
		return fail("parent size")
	}
	q, ok := readFloat()
	if !ok {
		return fail("q")
	}
	footprint, ok := readVarint()
	if !ok {
		return fail("footprint")
	}
	valueBytes, ok := readVarint()
	if !ok {
		return fail("value bytes")
	}
	countBytes, ok := readVarint()
	if !ok {
		return fail("count bytes")
	}
	exceedProb, ok := readFloat()
	if !ok {
		return fail("exceed prob")
	}
	entryCount, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return fail("entry count")
	}
	pos += n

	model := histogram.SizeModel{ValueBytes: valueBytes, CountBytes: countBytes}
	h := histogram.NewSized[int64](model, int(min(entryCount, uint64(len(buf)-pos)/2)))
	for i := uint64(0); i < entryCount; i++ {
		v, n, err := Int64Codec{}.Read(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("storage: decode entry %d: %w", i, err)
		}
		pos += n
		c, ok := readVarint()
		if !ok {
			return fail(fmt.Sprintf("entry %d count", i))
		}
		if c < 1 {
			return fail(fmt.Sprintf("entry %d has count %d", i, c))
		}
		if h.Count(v) != 0 {
			return fail(fmt.Sprintf("duplicate value in entry %d", i))
		}
		h.Insert(v, c)
	}
	if pos != len(buf) {
		return fail(fmt.Sprintf("%d trailing bytes", len(buf)-pos))
	}
	s := &core.Sample[int64]{
		Kind:       kind,
		Hist:       h,
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

// encodeEntries lays out a reservoir sample over parent rows holding exactly
// the given entries — value, count, value, count, … — in the given order and
// unchecked: the bytes a writer with no opinion on order or distinctness
// would produce.
func encodeEntries(parent int64, entries ...int64) []byte {
	cfg := core.ConfigForNF(64)
	buf := binary.BigEndian.AppendUint32(nil, magic)
	buf = append(buf, version, byte(core.ReservoirKind))
	buf = binary.AppendVarint(buf, parent)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(0))
	buf = binary.AppendVarint(buf, cfg.FootprintBytes)
	buf = binary.AppendVarint(buf, cfg.SizeModel.ValueBytes)
	buf = binary.AppendVarint(buf, cfg.SizeModel.CountBytes)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(cfg.ExceedProb))
	buf = binary.AppendUvarint(buf, uint64(len(entries)/2))
	for _, x := range entries {
		buf = binary.AppendVarint(buf, x)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

func sameSample(t *testing.T, what string, got, want *core.Sample[int64]) {
	t.Helper()
	if got.Kind != want.Kind || got.ParentSize != want.ParentSize || got.Q != want.Q || got.Config != want.Config {
		t.Fatalf("%s: metadata %v / %+v, want %v / %+v", what, got, got.Config, want, want.Config)
	}
	if !got.Hist.Equal(want.Hist) || got.Hist.Footprint() != want.Hist.Footprint() {
		t.Fatalf("%s: multiset %v, want %v", what, got.Hist, want.Hist)
	}
}

func ascending(h *histogram.Histogram[int64]) bool {
	return h.IsSortedFunc(Int64Codec{}.Compare)
}

func TestLegacyOrderFixture(t *testing.T) {
	legacy, err := os.ReadFile(legacyOrderFixture)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parentDecode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if ascending(want.Hist) || want.Hist.Distinct() < 40 || want.Hist.Size() == int64(want.Hist.Distinct()) {
		t.Fatalf("fixture is not a legacy-order sample with repeated values: %v", want.Hist)
	}
	got, err := DecodeSample(legacy, Int64Codec{})
	if err != nil {
		t.Fatalf("legacy-order file rejected: %v", err)
	}
	sameSample(t, "legacy decode", got, want)
	for i := 0; i < want.Hist.Distinct(); i++ {
		if got.Hist.Entry(i) != want.Hist.Entry(i) {
			t.Fatalf("entry %d = %v, want the file's order %v", i, got.Hist.Entry(i), want.Hist.Entry(i))
		}
	}

	// Written back it is the same varints in value order: same length, a
	// different hash, and a decoder from before the change reads it.
	rewritten, err := EncodeSample(got, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rewritten) != len(legacy) || bytes.Equal(rewritten, legacy) {
		t.Fatalf("re-encoded %d bytes (equal: %v), want %d bytes in another order",
			len(rewritten), bytes.Equal(rewritten, legacy), len(legacy))
	}
	if ascending(got.Hist) {
		t.Fatal("EncodeSample reordered the sample it was handed")
	}
	for name, decode := range map[string]func([]byte) (*core.Sample[int64], error){
		"this decoder":   func(b []byte) (*core.Sample[int64], error) { return DecodeSample(b, Int64Codec{}) },
		"parent decoder": parentDecode,
	} {
		back, err := decode(rewritten)
		if err != nil {
			t.Fatalf("%s on value-ordered bytes: %v", name, err)
		}
		sameSample(t, name, back, want)
		if !ascending(back.Hist) {
			t.Fatalf("%s: value-ordered bytes decoded out of order", name)
		}
	}
}

func TestEncodeIsCanonical(t *testing.T) {
	model := histogram.DefaultSizeModel
	values := make([]int64, 500)
	src := randx.New(5)
	for i := range values {
		values[i] = int64(src.Uint64()%200) - 100
	}
	forward, backward := histogram.New[int64](model), histogram.New[int64](model)
	for i := range values {
		forward.Insert(values[i], 1)
		backward.Insert(values[len(values)-1-i], 1)
	}
	sample := func(h *histogram.Histogram[int64]) *core.Sample[int64] {
		return &core.Sample[int64]{Kind: core.ReservoirKind, Hist: h, ParentSize: 9000, Config: core.ConfigForNF(512)}
	}
	a, err := EncodeSample(sample(forward), Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSample(sample(backward), Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("one multiset inserted in two orders encodes to different bytes")
	}
	// encode ∘ decode ∘ encode is a fixed point.
	s, err := DecodeSample(a, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, a) {
		t.Fatal("re-encoding a decoded sample changed its bytes")
	}
}

// Every input the parent's decoder rejects is still rejected, with the
// parent's message: duplicates wherever they sit relative to the first
// out-of-order pair, and each of the other checks the rewrite walked past.
// (A sample larger than its parent is rejected at the entry that takes it
// past, with a message of its own: TestDecodeCountsPastParent.)
func TestDecodeRejectsWhatParentRejects(t *testing.T) {
	good := encodeEntries(100, 1, 1, 2, 2, 3, 1)
	if _, err := DecodeSample(good, Int64Codec{}); err != nil {
		t.Fatalf("hand-built encoding rejected: %v", err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	empty := v1Encoding(t, encodeEntries(100)) // ends in its zero entry count
	hostile := append(binary.AppendUvarint(empty[:len(empty)-1], 1<<50), 2, 2)
	cases := map[string][]byte{
		"duplicate in a value-ordered file":          encodeEntries(100, 1, 1, 2, 1, 2, 1, 3, 1),
		"duplicate at the first out-of-order pair":   encodeEntries(100, 5, 1, 5, 2, 1, 1),
		"duplicate after the first out-of-order":     encodeEntries(100, 5, 1, 1, 1, 7, 1, 5, 1),
		"duplicate of a value read while in order":   encodeEntries(100, 1, 1, 3, 1, 2, 1, 4, 1, 3, 1),
		"duplicate of the out-of-order value itself": encodeEntries(100, 4, 1, 2, 1, 2, 1),
		"count below one":                            encodeEntries(100, 1, 1, 2, 0),
		"negative count on a duplicate":              encodeEntries(100, 1, 1, 1, -1),
		"checksum":                                   flipped,
		"trailing bytes":                             append(v1Encoding(t, good), 0),
		"hostile entry count":                        hostile,
		"truncated":                                  v1Encoding(t, good)[:len(good)-checksumSize-1],
	}
	for name, data := range cases {
		_, want := parentDecode(data)
		if want == nil {
			t.Fatalf("%s: the reference decoder accepts this input", name)
		}
		_, got := DecodeSample(data, Int64Codec{})
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: DecodeSample error %v, want the parent's %v", name, got, want)
		}
	}
}

func TestDecodeBuildsNoMapForValueOrder(t *testing.T) {
	hr := core.NewHR[int64](core.ConfigForNF(8192), randx.New(1))
	for v := int64(0); v < 100000; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Hist.Distinct() != 8192 {
		t.Fatalf("fixture holds %d entries, want 8192", s.Hist.Distinct())
	}
	data, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	// The entry slice, the histogram, the sample and the decoder's captured
	// cursor; a set or an index over 8192 values would be dozens more.
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSample(data, Int64Codec{}); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Fatalf("decoding a value-ordered 8192-entry sample allocates %v times, want ≤ 5", n)
	}
}
