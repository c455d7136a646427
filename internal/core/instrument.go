package core

import (
	"samplewh/internal/obs"
)

// samplerObs bundles a sampler's cached metric handles. The zero value (all
// nil handles) makes every recording call a no-op, so uninstrumented
// samplers pay only a nil-check per update — instrumentation is strictly
// opt-in via the samplers' Instrument methods.
//
// Metric names follow the catalog in README.md §Observability:
//
//	<component>.items              elements fed (counter; batched — exact at
//	                               every transition, purge and finalize,
//	                               else ≤ 4096 behind)
//	<component>.accepts            Bernoulli-phase acceptances (counter; HB, SB)
//	<component>.reservoir_inserts  reservoir replacements (counter; HB, HR)
//	<component>.phase_transitions  boundary crossings (counter; HB, HR)
//	<component>.finalized          samplers finalized (counter)
//	core.purge.bernoulli / .reservoir   purge invocations (counters)
//	core.purge.dropped                  elements dropped by purges (counter)
//	<component>.final_sample_size        histogram of final sample sizes
//	core.footprint.final_bytes           histogram of final footprints
type samplerObs struct {
	reg       *obs.Registry
	component string

	items       *obs.Counter
	accepts     *obs.Counter
	inserts     *obs.Counter
	transitions *obs.Counter

	// itemsPending batches the per-element item count locally so the feed
	// hot path never touches the shared counter: samplers are
	// single-goroutine by contract, so a plain field is race-free. The
	// batch is published every itemsFlushBatch elements and at every
	// transition/purge/finalize, keeping the shared counter exact at each
	// boundary and at most one batch behind in between.
	itemsPending int64
}

// itemsFlushBatch bounds how far <component>.items may trail the true count
// between boundary flushes.
const itemsFlushBatch = 1 << 12

// newSamplerObs caches the hot-path handles for one sampler, registering only
// the counters its kind increments: accepts for a sampler with a Bernoulli
// phase, reservoir_inserts and phase_transitions for one with a reservoir
// phase (the phases it crosses into). The handles it leaves nil are no-ops,
// and a nil registry yields the all-nil no-op bundle.
func newSamplerObs(r *obs.Registry, component string, bernoulli, reservoir bool) samplerObs {
	o := samplerObs{reg: r, component: component, items: r.Counter(component + ".items")}
	if bernoulli {
		o.accepts = r.Counter(component + ".accepts")
	}
	if reservoir {
		o.inserts = r.Counter(component + ".reservoir_inserts")
		o.transitions = r.Counter(component + ".phase_transitions")
	}
	return o
}

// countItems accumulates n fed elements into the local batch, publishing to
// the shared counter only when the batch fills.
func (o *samplerObs) countItems(n int64) {
	if o.items == nil {
		return
	}
	o.itemsPending += n
	if o.itemsPending >= itemsFlushBatch {
		o.items.Add(o.itemsPending)
		o.itemsPending = 0
	}
}

// flushItems publishes any locally-batched item count; boundary recorders
// call it so counters are exact at every phase boundary.
func (o *samplerObs) flushItems() {
	if o.itemsPending != 0 {
		o.items.Add(o.itemsPending)
		o.itemsPending = 0
	}
}

// transition records exactly one phase-boundary crossing.
func (o *samplerObs) transition() {
	o.flushItems()
	o.transitions.Inc()
}

// purge records one in-place subsampling of the compact sample.
func (o *samplerObs) purge(kind string, before, after int64) {
	if o.reg == nil {
		return
	}
	o.flushItems()
	// Purges happen at most a handful of times per sampler; the by-name
	// lookups here are off the hot path.
	o.reg.Counter("core.purge." + kind).Inc()
	o.reg.Counter("core.purge.dropped").Add(before - after)
}

// finalize records the finished sample's size and footprint occupancy
// against the bound F.
func (o *samplerObs) finalize(sampleSize, footprint int64) {
	if o.reg == nil {
		return
	}
	o.flushItems()
	o.reg.Counter(o.component + ".finalized").Inc()
	o.reg.Histogram(o.component + ".final_sample_size").Observe(sampleSize)
	o.reg.Histogram("core.footprint.final_bytes").Observe(footprint)
}
