package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"samplewh/internal/core"
)

// MemStore is an in-memory Store, safe for concurrent use. It keeps each
// sample's encoded bytes, the way a FileStore keeps files: Put encodes once,
// Get decodes, and GetRaw returns exactly what was stored.
type MemStore[V cmp.Ordered] struct {
	mu    sync.RWMutex
	m     map[string][]byte
	blobs map[string][]byte
	codec ValueCodec[V]
	o     storeObs
}

// NewMemStore returns an empty in-memory store encoding values with codec.
func NewMemStore[V cmp.Ordered](codec ValueCodec[V]) *MemStore[V] {
	return &MemStore[V]{m: make(map[string][]byte), blobs: make(map[string][]byte), codec: codec}
}

// set makes data, which the store owns from here on, the entry under key.
// Stored slices are replaced, never written to, so readers may use one
// after releasing the lock.
func (s *MemStore[V]) set(key string, data []byte) {
	s.mu.Lock()
	s.m[key] = data
	s.mu.Unlock()
	s.o.puts.Inc()
	s.o.bytesWritten.Add(int64(len(data)))
}

// lookup returns the bytes stored under key.
func (s *MemStore[V]) lookup(key string) ([]byte, bool) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	return data, ok
}

// Put implements Store.
func (s *MemStore[V]) Put(key string, smp *core.Sample[V]) error {
	_, err := s.PutSample(key, smp)
	return err
}

// PutSample implements Store: Put, handing back a copy of the bytes stored.
func (s *MemStore[V]) PutSample(key string, smp *core.Sample[V]) ([]byte, error) {
	t := s.o.putNS.Start()
	defer t.Stop()
	sortForPut(smp)
	te := s.o.encodeNS.Start()
	data, err := EncodeSample(smp, s.codec)
	te.Stop()
	if err != nil {
		return nil, fmt.Errorf("storage: put %q: encode: %w", key, err)
	}
	s.set(key, data)
	return slices.Clone(data), nil
}

// Get implements Store.
func (s *MemStore[V]) Get(key string) (*core.Sample[V], error) {
	t := s.o.getNS.Start()
	defer t.Stop()
	data, ok := s.lookup(key)
	s.o.gets.Inc()
	if !ok {
		s.o.misses.Inc()
		return nil, &NotFoundError{Key: key}
	}
	td := s.o.decodeNS.Start()
	smp, err := DecodeSample(data, s.codec)
	td.Stop()
	if err != nil {
		return nil, &CorruptError{Key: key, Err: err}
	}
	s.o.bytesRead.Add(int64(len(data)))
	return smp, nil
}

// GetRaw implements Store.
func (s *MemStore[V]) GetRaw(key string) ([]byte, error) {
	data, ok := s.lookup(key)
	if !ok {
		return nil, &NotFoundError{Key: key}
	}
	s.o.bytesRead.Add(int64(len(data)))
	return slices.Clone(data), nil
}

// PutRaw implements Store: validate, then keep a copy of data verbatim.
func (s *MemStore[V]) PutRaw(key string, data []byte) error {
	if _, err := DecodeSample(data, s.codec); err != nil {
		return fmt.Errorf("storage: put raw %q: %w", key, err)
	}
	s.set(key, slices.Clone(data))
	return nil
}

// DecodeRaw implements Store.
func (s *MemStore[V]) DecodeRaw(data []byte) (*core.Sample[V], error) {
	return DecodeSample(data, s.codec)
}

// Delete implements Store.
func (s *MemStore[V]) Delete(key string) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	s.o.deletes.Inc()
	return nil
}

// Keys implements Store.
func (s *MemStore[V]) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// PutBlob implements Store.
func (s *MemStore[V]) PutBlob(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("storage: empty blob name")
	}
	cp := slices.Clone(data)
	s.mu.Lock()
	s.blobs[name] = cp
	s.mu.Unlock()
	s.o.blobPut(len(data))
	return nil
}

// GetBlob implements Store.
func (s *MemStore[V]) GetBlob(name string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.blobs[name]
	s.mu.RUnlock()
	s.o.blobGets.Inc()
	if !ok {
		return nil, &NotFoundError{Key: name}
	}
	return slices.Clone(data), nil
}

// DeleteBlob implements Store.
func (s *MemStore[V]) DeleteBlob(name string) error {
	s.mu.Lock()
	delete(s.blobs, name)
	s.mu.Unlock()
	s.o.blobDeletes.Inc()
	return nil
}
