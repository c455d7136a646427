package storage

import (
	"fmt"
	"os"

	"samplewh/internal/core"
)

// RawStore is an optional extension of Store granting access to the encoded
// sample bytes themselves. Anti-entropy repair is built on it: partition
// content hashes are computed over the exact stored bytes, and partition
// transfers ship those bytes verbatim so a pulled replica is byte-identical
// to its source. A Store that does not implement RawStore still works — the
// warehouse falls back to presence-only digests (empty content hashes).
type RawStore[V comparable] interface {
	// GetRaw returns the encoded bytes stored under key, or an error
	// satisfying IsNotFound if absent. The bytes are NOT validated; callers
	// that intend to use them must DecodeRaw first.
	GetRaw(key string) ([]byte, error)
	// PutRaw stores pre-encoded sample bytes under key, replacing any
	// existing entry. The bytes are validated (checksum + structure) before
	// they become visible, so a corrupt transfer can never be adopted.
	PutRaw(key string, data []byte) error
	// PutSample is Put that also returns the encoded bytes it stored — what
	// GetRaw would read back — so a caller can hash what it wrote without
	// reading it again. The bytes are nil when the store keeps none (a
	// MemStore without a codec).
	PutSample(key string, s *core.Sample[V]) ([]byte, error)
	// DecodeRaw decodes encoded sample bytes without touching the store.
	DecodeRaw(data []byte) (*core.Sample[V], error)
}

// GetRaw implements RawStore by reading the sample file verbatim.
func (s *FileStore[V]) GetRaw(key string) ([]byte, error) {
	path, err := s.pathFor(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, &NotFoundError{Key: key, Err: err}
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get raw %q: read: %w", key, err)
	}
	s.o.bytesRead.Add(int64(len(data)))
	return data, nil
}

// PutRaw implements RawStore: validate-then-write so the visible file is
// never garbage, with the same atomic replacement discipline as Put.
func (s *FileStore[V]) PutRaw(key string, data []byte) error {
	path, err := s.pathFor(key)
	if err != nil {
		return err
	}
	if _, err := DecodeSample(data, s.codec); err != nil {
		return fmt.Errorf("storage: put raw %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeAtomic(path, data); err != nil {
		return fmt.Errorf("storage: put raw %q: %w", key, err)
	}
	s.o.puts.Inc()
	s.o.bytesWritten.Add(int64(len(data)))
	return nil
}

// DecodeRaw implements RawStore.
func (s *FileStore[V]) DecodeRaw(data []byte) (*core.Sample[V], error) {
	return DecodeSample(data, s.codec)
}

// WithCodec equips the in-memory store with a value codec, enabling the
// RawStore methods, and makes value order the store's order (Put sorts, as a
// FileStore's does). MemStore holds decoded samples, so GetRaw re-encodes on
// demand; because EncodeSample writes equal multisets as equal bytes, the
// result is byte-stable across calls and across replicas holding equal
// samples, and equals what PutRaw was given whenever that was in value order
// (bytes from a writer that predates it come back reordered: same multiset,
// same length). Returns the receiver for chaining.
func (s *MemStore[V]) WithCodec(codec ValueCodec[V]) *MemStore[V] {
	s.codec = codec
	return s
}

// GetRaw implements RawStore by encoding the stored sample canonically.
func (s *MemStore[V]) GetRaw(key string) ([]byte, error) {
	if s.codec == nil {
		return nil, fmt.Errorf("storage: memstore %q: no codec (use WithCodec)", key)
	}
	s.mu.RLock()
	smp, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, &NotFoundError{Key: key}
	}
	data, err := EncodeSample(smp, s.codec)
	if err != nil {
		return nil, fmt.Errorf("storage: memstore get raw %q: %w", key, err)
	}
	s.o.bytesRead.Add(int64(len(data)))
	return data, nil
}

// PutRaw implements RawStore by decoding (which validates) and storing.
func (s *MemStore[V]) PutRaw(key string, data []byte) error {
	if s.codec == nil {
		return fmt.Errorf("storage: memstore %q: no codec (use WithCodec)", key)
	}
	smp, err := DecodeSample(data, s.codec)
	if err != nil {
		return fmt.Errorf("storage: memstore put raw %q: %w", key, err)
	}
	s.mu.Lock()
	s.m[key] = smp
	s.mu.Unlock()
	s.o.puts.Inc()
	s.o.bytesWritten.Add(int64(len(data)))
	return nil
}

// PutSample implements RawStore: Put, then the canonical encoding GetRaw
// would produce.
func (s *MemStore[V]) PutSample(key string, smp *core.Sample[V]) ([]byte, error) {
	if err := s.Put(key, smp); err != nil || s.codec == nil {
		return nil, err
	}
	data, err := EncodeSample(smp, s.codec)
	if err != nil {
		return nil, fmt.Errorf("storage: memstore put %q: encode: %w", key, err)
	}
	return data, nil
}

// DecodeRaw implements RawStore.
func (s *MemStore[V]) DecodeRaw(data []byte) (*core.Sample[V], error) {
	if s.codec == nil {
		return nil, fmt.Errorf("storage: memstore: no codec (use WithCodec)")
	}
	return DecodeSample(data, s.codec)
}

var (
	_ RawStore[int64] = (*MemStore[int64])(nil)
	_ RawStore[int64] = (*FileStore[int64])(nil)
)
