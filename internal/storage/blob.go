package storage

import (
	"errors"
	"fmt"
	"os"
)

// BlobStore is the optional byte-level side channel a Store may provide for
// small metadata documents — the warehouse persists its catalog manifest and
// one sketch sidecar per partition through it. Blob names use the same
// escaping as sample keys but a distinct file extension, so blobs and samples
// never collide and Keys never lists blobs. Both built-in stores implement
// it; wrappers (RetryStore, the fault injector) forward it and report
// ErrBlobsUnsupported when their inner store lacks it.
type BlobStore interface {
	// PutBlob stores data under name, replacing any existing blob, with the
	// same atomicity guarantee as Put.
	PutBlob(name string, data []byte) error
	// GetBlob returns the blob stored under name, or an error satisfying
	// IsNotFound if absent. Callers own the returned slice.
	GetBlob(name string) ([]byte, error)
	// DeleteBlob removes the blob under name; deleting a missing blob is a
	// no-op.
	DeleteBlob(name string) error
}

// ErrBlobsUnsupported is returned by store wrappers whose underlying store
// does not implement BlobStore.
var ErrBlobsUnsupported = errors.New("storage: store does not support blobs")

// PutBlob implements BlobStore.
func (s *MemStore[V]) PutBlob(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("storage: empty blob name")
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.blobs[name] = cp
	s.mu.Unlock()
	s.o.blobPut(len(data))
	return nil
}

// GetBlob implements BlobStore.
func (s *MemStore[V]) GetBlob(name string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.blobs[name]
	s.mu.RUnlock()
	s.o.blobGets.Inc()
	if !ok {
		return nil, &NotFoundError{Key: name}
	}
	return append([]byte(nil), data...), nil
}

// DeleteBlob implements BlobStore.
func (s *MemStore[V]) DeleteBlob(name string) error {
	s.mu.Lock()
	delete(s.blobs, name)
	s.mu.Unlock()
	s.o.blobDeletes.Inc()
	return nil
}

// PutBlob implements BlobStore with the same atomic temp-file + rename path
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

// GetBlob implements BlobStore.
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

// DeleteBlob implements BlobStore. Like Delete it leaves the removal to the
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

var (
	_ BlobStore = (*MemStore[int64])(nil)
	_ BlobStore = (*FileStore[int64])(nil)
)
