package samplecache

import (
	"samplewh/internal/obs"
)

// cacheObs bundles the cache's metric handles. The zero value (all nil) makes
// every recording call a no-op, following the internal/obs convention.
//
// Metric names (see README.md §Observability):
//
//	samplecache.hits           read-through hits (counter)
//	samplecache.misses         read-through misses (counter)
//	samplecache.evictions      entries dropped for the byte budget (counter)
//	samplecache.invalidations  entries dropped by roll-in/out, attach, quarantine (counter)
//	samplecache.rejects        samples larger than the whole budget (counter)
//	samplecache.bytes          cached footprint total (gauge)
//	samplecache.entries        cached entry count (gauge)
type cacheObs struct {
	hits          *obs.Counter
	misses        *obs.Counter
	evictionsC    *obs.Counter
	invalidations *obs.Counter
	rejects       *obs.Counter

	bytes   *obs.Gauge
	entries *obs.Gauge
}

// newCacheObs caches the metric handles; nil registry → no-op bundle.
func newCacheObs(r *obs.Registry) cacheObs {
	return cacheObs{
		hits:          r.Counter("samplecache.hits"),
		misses:        r.Counter("samplecache.misses"),
		evictionsC:    r.Counter("samplecache.evictions"),
		invalidations: r.Counter("samplecache.invalidations"),
		rejects:       r.Counter("samplecache.rejects"),
		bytes:         r.Gauge("samplecache.bytes"),
		entries:       r.Gauge("samplecache.entries"),
	}
}
