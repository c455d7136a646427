package storage

import (
	"fmt"
	"os"

	"samplewh/internal/core"
)

// GetRaw implements Store by reading the sample file verbatim.
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

// PutRaw implements Store: validate-then-write so the visible file is
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

// DecodeRaw implements Store.
func (s *FileStore[V]) DecodeRaw(data []byte) (*core.Sample[V], error) {
	return DecodeSample(data, s.codec)
}
