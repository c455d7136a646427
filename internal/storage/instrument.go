package storage

import (
	"samplewh/internal/obs"
)

// storeObs bundles a store's cached metric handles. The zero value (all nil)
// is the no-op bundle; the stores' Instrument methods swap in a live one.
// Install instrumentation before sharing the store across goroutines.
//
// Metric names (see README.md §Observability), prefixed by the store kind
// ("storage.mem" or "storage.file"):
//
//	<kind>.puts / .gets / .deletes   operations (counters)
//	<kind>.misses                    Get calls that found no key (counter)
//	<kind>.bytes_written / .bytes_read   encoded sample bytes (counters)
//	<kind>.quarantines               corrupt files renamed aside (counter)
//	<kind>.blob_puts / .blob_gets / .blob_deletes   catalog side-channel operations (counters)
//	<kind>.blob_bytes_written        manifest and sidecar bytes (counter)
//	<kind>.encode_ns / .decode_ns    codec latency histograms
//	<kind>.put_ns / .get_ns          whole-operation latency histograms
type storeObs struct {
	reg *obs.Registry

	puts        *obs.Counter
	gets        *obs.Counter
	deletes     *obs.Counter
	misses      *obs.Counter
	quarantines *obs.Counter

	bytesWritten *obs.Counter
	bytesRead    *obs.Counter

	blobPuts         *obs.Counter
	blobGets         *obs.Counter
	blobDeletes      *obs.Counter
	blobBytesWritten *obs.Counter

	encodeNS *obs.Histogram
	decodeNS *obs.Histogram
	putNS    *obs.Histogram
	getNS    *obs.Histogram
}

// newStoreObs caches the handles for one store under the given name prefix.
// A nil registry yields the all-nil no-op bundle.
func newStoreObs(r *obs.Registry, kind string) storeObs {
	return storeObs{
		reg:              r,
		puts:             r.Counter(kind + ".puts"),
		gets:             r.Counter(kind + ".gets"),
		deletes:          r.Counter(kind + ".deletes"),
		misses:           r.Counter(kind + ".misses"),
		quarantines:      r.Counter(kind + ".quarantines"),
		bytesWritten:     r.Counter(kind + ".bytes_written"),
		bytesRead:        r.Counter(kind + ".bytes_read"),
		blobPuts:         r.Counter(kind + ".blob_puts"),
		blobGets:         r.Counter(kind + ".blob_gets"),
		blobDeletes:      r.Counter(kind + ".blob_deletes"),
		blobBytesWritten: r.Counter(kind + ".blob_bytes_written"),
		encodeNS:         r.Histogram(kind + ".encode_ns"),
		decodeNS:         r.Histogram(kind + ".decode_ns"),
		putNS:            r.Histogram(kind + ".put_ns"),
		getNS:            r.Histogram(kind + ".get_ns"),
	}
}

// blobPut accounts one stored blob of n bytes.
func (o *storeObs) blobPut(n int) {
	o.blobPuts.Inc()
	o.blobBytesWritten.Add(int64(n))
}

// Instrument implements Store.
func (s *MemStore[V]) Instrument(reg *obs.Registry) {
	s.o = newStoreObs(reg, "storage.mem")
}

// Instrument implements Store.
func (s *FileStore[V]) Instrument(reg *obs.Registry) {
	s.o = newStoreObs(reg, "storage.file")
}
