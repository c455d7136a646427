package storage

import (
	"context"
	"math"
	"os"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// FuzzDecodeSample asserts that no input — however corrupted — can make the
// decoder panic; it must either round-trip or return an error, and what it
// accepts must merge (core.MergeK) beside a second input without a panic.
// Run with `go test -fuzz FuzzDecodeSample ./internal/storage` to explore; the
// seed corpus below runs on every plain `go test`.
func FuzzDecodeSample(f *testing.F) {
	// Seed with valid encodings of diverse samples.
	for seed := uint64(1); seed <= 3; seed++ {
		hr := core.NewHR[int64](core.ConfigForNF(64), randx.New(seed))
		for v := int64(0); v < int64(seed)*1000; v++ {
			hr.Feed(v % 300)
		}
		s, err := hr.Finalize()
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeSample(s, Int64Codec{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The seeds above are in value order, as EncodeSample writes them. Files
	// from before it did are not, and take the decoder's other duplicate
	// check: a whole one, and short ones that switch checks at each position
	// a duplicate can hide relative to the first out-of-order pair.
	legacy, err := os.ReadFile(legacyOrderFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(encodeEntries(100, 5, 1, 1, 2, 7, 1, 3, 1))
	f.Add(encodeEntries(100, 1, 1, 3, 1, 2, 1, 3, 1))
	f.Add(encodeEntries(100, 1, 1, 2, 1, 2, 1))
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x57, 0x48, 0x31, 1, 2})
	// Counts of each width the entry loop reads — one byte to 63, two from
	// 64, six at 2⁴⁰ — and negative ones, of one byte and of two.
	f.Add(encodeEntries(1<<41, 1, 63, 2, 64, 3, 1<<40))
	f.Add(encodeEntries(100, 1, 1, 2, -1))
	f.Add(encodeEntries(100, 1, 1, 2, -300))
	// Counts whose sum wraps int64: negative, and back to positive.
	f.Add(encodeEntries(10, 1, math.MaxInt64, 2, 2))
	f.Add(encodeEntries(10, 1, math.MaxInt64, 2, math.MaxInt64, 3, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSample(data, Int64Codec{})
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever decodes holds no value twice, by a check that shares
		// nothing with the decoder's.
		seen := make(map[int64]bool, s.Hist.Distinct())
		s.Hist.Each(func(v int64, _ int64) {
			if seen[v] {
				t.Fatalf("decoder accepted value %d twice", v)
			}
			seen[v] = true
		})
		// Anything accepted must satisfy the sample invariants and
		// re-encode cleanly.
		if err := s.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid sample: %v", err)
		}
		if _, err := EncodeSample(s, Int64Codec{}); err != nil {
			t.Fatalf("accepted sample failed to re-encode: %v", err)
		}
		mergeBeside(t, s)
	})
}

// mergeBeside merges s beside mergePartner(s), as a served merge trusts what
// decodes: an error is fine, a panic is not, and what merges is in strictly
// ascending value order whatever order s holds its entries in. FuzzPutRaw,
// outside the package, calls it as MergeBeside.
func mergeBeside(t *testing.T, s *core.Sample[int64]) {
	t.Helper()
	m, err := core.MergeK(context.Background(), []*core.Sample[int64]{s, mergePartner(s)}, randx.New(1), 1)
	if err != nil {
		return
	}
	for i := 1; i < m.Hist.Distinct(); i++ {
		if m.Hist.Entry(i).Value <= m.Hist.Entry(i-1).Value {
			t.Fatalf("merged entries %d and %d out of value order: %v", i-1, i, m.Hist.Entries())
		}
	}
}

var MergeBeside = mergeBeside

// mergePartner is a small sample of another partition, of s's kind and
// config, for s to be merged beside.
func mergePartner(s *core.Sample[int64]) *core.Sample[int64] {
	o := &core.Sample[int64]{Kind: s.Kind, ParentSize: 10, Q: s.Q, Config: s.Config,
		Hist: histogram.FromEntries(s.Config.SizeModel, []histogram.Entry[int64]{{Value: 1, Count: 1}, {Value: 2, Count: 2}})}
	if s.Kind == core.Exhaustive {
		o.ParentSize = o.Size()
	}
	return o
}

// TestDecodeCountsPastParent: the counts may sum to the parent size and no
// further, checked as they are read. Counts whose sum wraps int64 — to a
// negative size, or with three of them back to a small positive one — would
// pass Validate's size ≤ parent, and the merge sizes a buffer from them.
func TestDecodeCountsPastParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"up to the parent", encodeEntries(10, 1, 4, 2, 6), true},
		{"past the parent", encodeEntries(10, 1, 4, 2, 7), false},
		{"sum wraps negative", encodeEntries(10, 1, math.MaxInt64, 2, 2), false},
		{"sum wraps positive", encodeEntries(10, 1, math.MaxInt64, 2, math.MaxInt64, 3, 3), false},
		{"negative parent", encodeEntries(-1), false},
	} {
		s, err := DecodeSample(tc.data, Int64Codec{})
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted as %v", tc.name, s)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := core.MergeK(context.Background(), []*core.Sample[int64]{s, mergePartner(s)}, randx.New(1), 1); err != nil {
			t.Fatalf("%s: merge: %v", tc.name, err)
		}
	}
}

// TestDecodeBitFlips flips every byte of a valid encoding one at a time and
// checks the decoder never panics and never returns an invalid sample.
func TestDecodeBitFlips(t *testing.T) {
	hr := core.NewHR[int64](core.ConfigForNF(32), randx.New(9))
	for v := int64(0); v < 2000; v++ {
		hr.Feed(v % 100)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			got, err := DecodeSample(mut, Int64Codec{})
			if err != nil {
				continue
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("byte %d flip %#x: invalid sample accepted: %v", i, flip, err)
			}
		}
	}
}

// TestDecodeTruncations decodes every prefix of a valid encoding.
func TestDecodeTruncations(t *testing.T) {
	hr := core.NewHR[int64](core.ConfigForNF(32), randx.New(10))
	for v := int64(0); v < 1000; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := DecodeSample(data[:i], Int64Codec{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}
