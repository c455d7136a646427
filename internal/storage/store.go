package storage

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"samplewh/internal/core"
	"samplewh/internal/obs"
)

// Store is the persistence contract the sample warehouse programs against,
// and every store provides all of it: samples by key, their encoded bytes,
// the blob side channel that makes the catalog durable, and metrics. Keys
// are hierarchical, slash-separated strings such as
// "orders/price/2006-01-02".
type Store[V cmp.Ordered] interface {
	// Put stores the sample under key, replacing any existing one. It first
	// puts the caller's sample in ascending value order (Histogram.Sort): the
	// multiset is untouched, the entry order afterwards is the one every
	// later Get returns. So the caller must own the sample: no other
	// goroutine may be reading or putting it meanwhile, unless it is in that
	// order already (after Sort, Put writes nothing to it).
	Put(key string, s *core.Sample[V]) error
	// Get returns the sample stored under key, or an error satisfying
	// IsNotFound if absent. Callers own the returned sample.
	Get(key string) (*core.Sample[V], error)
	// Delete removes the sample under key; deleting a missing key is a
	// no-op.
	Delete(key string) error
	// Keys returns all stored keys with the given prefix, sorted. Blobs are
	// never listed.
	Keys(prefix string) ([]string, error)

	// The encoded bytes. Anti-entropy repair is built on them: partition
	// content hashes are computed over the exact stored bytes, and partition
	// transfers ship those bytes verbatim so a pulled replica is
	// byte-identical to its source.

	// GetRaw returns the encoded bytes stored under key, exactly as stored,
	// or an error satisfying IsNotFound if absent. The bytes are NOT
	// validated; callers that intend to use them must DecodeRaw first.
	GetRaw(key string) ([]byte, error)
	// PutRaw stores pre-encoded sample bytes under key verbatim, replacing
	// any existing entry. The bytes are validated (checksum + structure)
	// before they become visible, so a corrupt transfer can never be
	// adopted; rejected bytes leave the previous entry in place.
	PutRaw(key string, data []byte) error
	// PutSample is Put that also returns the encoded bytes it stored — what
	// GetRaw reads back — so a caller can hash what it wrote without reading
	// it again.
	PutSample(key string, s *core.Sample[V]) ([]byte, error)
	// DecodeRaw decodes encoded sample bytes without touching the store.
	DecodeRaw(data []byte) (*core.Sample[V], error)

	// The blob side channel, for small metadata documents: the warehouse
	// persists its catalog manifest and one sketch sidecar per partition
	// through it. Blob names use the same escaping as sample keys in their
	// own namespace, so blobs and samples never collide.

	// PutBlob stores data under name, replacing any existing blob, with the
	// same atomicity guarantee as Put.
	PutBlob(name string, data []byte) error
	// GetBlob returns the blob stored under name, or an error satisfying
	// IsNotFound if absent. Callers own the returned slice.
	GetBlob(name string) ([]byte, error)
	// DeleteBlob removes the blob under name; deleting a missing blob is a
	// no-op.
	DeleteBlob(name string) error

	// Instrument routes the store's metrics into reg; a nil registry reverts
	// it to the uninstrumented no-op state. Install instrumentation before
	// sharing the store across goroutines.
	Instrument(reg *obs.Registry)
}

// sortForPut puts the caller's sample into ascending value order, in place
// and without a copy, before a store encodes it. It runs ahead of everything
// else so that whatever the caller derives from the sample — the warehouse's
// sidecar (its heavy-hitter table depends on entry order), statistics,
// content hash — is derived from the order a later Get of the same key
// yields. It writes nothing to a sample already in order.
func sortForPut[V cmp.Ordered](smp *core.Sample[V]) {
	if smp != nil && smp.Hist != nil {
		smp.Hist.Sort()
	}
}

// FileStore persists samples as one file per key under a root directory,
// using the binary codec and atomic temp-file + rename replacement so a
// crash never leaves a half-written sample visible.
type FileStore[V cmp.Ordered] struct {
	root  string
	codec ValueCodec[V]
	mu    sync.Mutex
	o     storeObs
}

// NewFileStore opens (creating if needed) a file store rooted at dir.
func NewFileStore[V cmp.Ordered](dir string, codec ValueCodec[V]) (*FileStore[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &FileStore[V]{root: dir, codec: codec}, nil
}

// File suffixes: every sample file, every metadata blob, and the rename
// target for quarantined corrupt files.
const (
	fileExt    = ".sample"
	blobExt    = ".blob"
	corruptExt = ".corrupt"
	tmpPrefix  = ".tmp-"
)

// pathFor maps a key to a sample file path, escaping path-hostile characters.
func (s *FileStore[V]) pathFor(key string) (string, error) {
	return s.pathForExt(key, fileExt)
}

// pathForExt maps a key to a file path with the given extension.
func (s *FileStore[V]) pathForExt(key, ext string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("storage: empty key")
	}
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '/':
			b.WriteByte(c)
		default:
			// Percent-escape byte-wise (URL style) so any UTF-8 key — including
			// runes beyond U+FFFF — round-trips through keyFor.
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	clean := b.String()
	if strings.Contains(clean, "..") || strings.HasPrefix(clean, "/") {
		return "", fmt.Errorf("storage: invalid key %q", key)
	}
	return filepath.Join(s.root, clean+ext), nil
}

// keyFor inverts pathFor for listing.
func (s *FileStore[V]) keyFor(path string) (string, error) {
	rel, err := filepath.Rel(s.root, path)
	if err != nil {
		return "", err
	}
	rel = strings.TrimSuffix(rel, fileExt)
	var b strings.Builder
	for i := 0; i < len(rel); {
		if rel[i] == '%' && i+2 < len(rel) {
			var n int
			if _, err := fmt.Sscanf(rel[i+1:i+3], "%02x", &n); err == nil {
				b.WriteByte(byte(n))
				i += 3
				continue
			}
		}
		b.WriteByte(rel[i])
		i++
	}
	return b.String(), nil
}

// syncDir fsyncs a directory, making a preceding rename (or create/remove)
// inside it durable. On filesystems where directories cannot be fsynced the
// open itself fails and the error is reported — better a loud failure than a
// silent durability hole.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir: %w", err)
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

// writeAtomic writes data to path via temp file + fsync + rename + parent
// directory fsync, so a crash at any point leaves either the old file or the
// new one — never a partial write — visible under path. The directory fsync
// matters: without it the rename itself lives only in the directory's dirty
// page and a power cut can roll the path back to the old file (or nothing)
// even though the data blocks were synced. Callers hold s.mu.
func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable rename: %w", err)
	}
	return nil
}

// Put implements Store with atomic replace.
func (s *FileStore[V]) Put(key string, smp *core.Sample[V]) error {
	_, err := s.PutSample(key, smp)
	return err
}

// PutSample implements Store: Put, handing back the encoded bytes.
func (s *FileStore[V]) PutSample(key string, smp *core.Sample[V]) ([]byte, error) {
	t := s.o.putNS.Start()
	defer t.Stop()
	path, err := s.pathFor(key)
	if err != nil {
		return nil, err
	}
	sortForPut(smp)
	te := s.o.encodeNS.Start()
	data, err := EncodeSample(smp, s.codec)
	te.Stop()
	if err != nil {
		return nil, fmt.Errorf("storage: put %q: encode: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeAtomic(path, data); err != nil {
		return nil, fmt.Errorf("storage: put %q: %w", key, err)
	}
	s.o.puts.Inc()
	s.o.bytesWritten.Add(int64(len(data)))
	return data, nil
}

// Get implements Store. A file whose bytes fail checksum or structural
// validation is quarantined — renamed to a ".corrupt" sibling so it is never
// half-decoded again and the key reads as missing afterwards — and the error
// satisfies IsCorrupt.
func (s *FileStore[V]) Get(key string) (*core.Sample[V], error) {
	t := s.o.getNS.Start()
	defer t.Stop()
	path, err := s.pathFor(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.o.gets.Inc()
		s.o.misses.Inc()
		return nil, &NotFoundError{Key: key, Err: err}
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get %q: read: %w", key, err)
	}
	td := s.o.decodeNS.Start()
	smp, err := DecodeSample(data, s.codec)
	td.Stop()
	if err != nil {
		s.quarantine(path)
		return nil, &CorruptError{Key: key, Err: err}
	}
	s.o.gets.Inc()
	s.o.bytesRead.Add(int64(len(data)))
	return smp, nil
}

// quarantine renames a corrupt sample file out of the visible key space.
func (s *FileStore[V]) quarantine(path string) {
	s.mu.Lock()
	err := os.Rename(path, path+corruptExt)
	if err == nil {
		// Make the quarantine itself crash-durable; a rolled-back rename
		// would resurrect the corrupt file under its original key.
		_ = syncDir(filepath.Dir(path))
	}
	s.mu.Unlock()
	if err != nil {
		// The file may already be gone (concurrent delete); nothing to keep.
		return
	}
	s.o.quarantines.Inc()
}

// Delete implements Store.
func (s *FileStore[V]) Delete(key string) error {
	path, err := s.pathFor(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	err = os.Remove(path)
	s.mu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete %q: %w", key, err)
	}
	s.o.deletes.Inc()
	return nil
}

// Keys implements Store. A missing or freshly-removed root lists as empty
// rather than erroring, matching MemStore's behavior on an empty store.
func (s *FileStore[V]) Keys(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	err := filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // file vanished mid-walk (or the root is gone)
			}
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, fileExt) {
			return nil
		}
		key, err := s.keyFor(path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: list: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

var (
	_ Store[int64] = (*MemStore[int64])(nil)
	_ Store[int64] = (*FileStore[int64])(nil)
)
