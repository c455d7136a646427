package storage

import (
	"fmt"
	"os"
)

// PutBlob implements Store with the same atomic temp-file + rename path
// as Put.
func (s *FileStore[V]) PutBlob(name string, data []byte) error {
	path, err := s.pathForExt(name, blobExt)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeAtomic(path, data); err != nil {
		return fmt.Errorf("storage: put blob %q: %w", name, err)
	}
	s.o.blobPut(len(data))
	return nil
}

// GetBlob implements Store.
func (s *FileStore[V]) GetBlob(name string) ([]byte, error) {
	path, err := s.pathForExt(name, blobExt)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	s.o.blobGets.Inc()
	if os.IsNotExist(err) {
		return nil, &NotFoundError{Key: name, Err: err}
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get blob %q: read: %w", name, err)
	}
	return data, nil
}

// DeleteBlob implements Store. Like Delete it leaves the removal to the
// next directory sync: a blob that reappears after a power cut is one the
// manifest no longer names.
func (s *FileStore[V]) DeleteBlob(name string) error {
	path, err := s.pathForExt(name, blobExt)
	if err != nil {
		return err
	}
	s.mu.Lock()
	err = os.Remove(path)
	s.mu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete blob %q: %w", name, err)
	}
	s.o.blobDeletes.Inc()
	return nil
}
