package core

import (
	"fmt"

	"samplewh/internal/histogram"
)

// Kind records the statistical nature of a finalized sample — the paper's
// h_i ("final phase of the algorithm when creating S_i"), which drives the
// merge procedures.
type Kind uint8

const (
	// Exhaustive means the sample is the complete frequency histogram of the
	// parent partition (the algorithm finished in phase 1).
	Exhaustive Kind = iota + 1
	// BernoulliKind means the sample is (effectively) a Bern(q) sample of
	// the parent partition (Algorithm HB finished in phase 2).
	BernoulliKind
	// ReservoirKind means the sample is a simple random sample without
	// replacement of the parent partition (phase 3 of HB, phase 2 of HR).
	ReservoirKind
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Exhaustive:
		return "exhaustive"
	case BernoulliKind:
		return "bernoulli"
	case ReservoirKind:
		return "reservoir"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Sample is a finalized, self-describing sample of one data-set partition
// (or of a union of partitions after merging). It is the unit that the
// sample warehouse stores, rolls in and out, and merges.
type Sample[V comparable] struct {
	// Kind is the statistical nature of Hist relative to the parent.
	Kind Kind
	// Hist holds the sampled values in compact (value, count) form.
	Hist *histogram.Histogram[V]
	// ParentSize is |D|: the number of data elements in the parent
	// partition(s) the sample was drawn from.
	ParentSize int64
	// Q is the Bernoulli sampling rate; meaningful only when Kind is
	// BernoulliKind (1 for exhaustive samples by convention).
	Q float64
	// Config carries the footprint bound and size model the sample was
	// collected under; merges reuse it.
	Config Config
}

// Size returns the number of data-element values in the sample.
func (s *Sample[V]) Size() int64 { return s.Hist.Size() }

// Footprint returns the byte footprint of the sample's compact form.
func (s *Sample[V]) Footprint() int64 { return s.Hist.Footprint() }

// Fraction returns the sampling fraction |S| / |D|.
func (s *Sample[V]) Fraction() float64 {
	if s.ParentSize == 0 {
		return 0
	}
	return float64(s.Size()) / float64(s.ParentSize)
}

// Clone returns a deep copy; merges consume their inputs, so callers that
// keep samples in a warehouse merge clones.
func (s *Sample[V]) Clone() *Sample[V] {
	c := *s
	c.Hist = s.Hist.Clone()
	return &c
}

// Validate checks the sample's internal consistency.
func (s *Sample[V]) Validate() error {
	if s.Hist == nil {
		return fmt.Errorf("core: sample has nil histogram")
	}
	if s.ParentSize < 0 {
		return fmt.Errorf("core: sample has negative parent size %d", s.ParentSize)
	}
	switch s.Kind {
	case Exhaustive:
		if s.Hist.Size() != s.ParentSize {
			return fmt.Errorf("core: exhaustive sample size %d != parent size %d",
				s.Hist.Size(), s.ParentSize)
		}
	case BernoulliKind:
		if !(s.Q > 0 && s.Q <= 1) { // NaN included
			return fmt.Errorf("core: bernoulli sample with rate q = %v outside (0,1]", s.Q)
		}
	case ReservoirKind:
		// No kind-specific invariant beyond the global size check below; a
		// simple random sample may legitimately be any size up to |D|.
	default:
		return fmt.Errorf("core: sample has invalid kind %v", s.Kind)
	}
	if s.Hist.Size() > s.ParentSize {
		return fmt.Errorf("core: sample size %d exceeds parent size %d",
			s.Hist.Size(), s.ParentSize)
	}
	return nil
}

// String summarizes the sample.
func (s *Sample[V]) String() string {
	return fmt.Sprintf("Sample{kind=%s size=%d parent=%d q=%.6g footprint=%dB}",
		s.Kind, s.Size(), s.ParentSize, s.Q, s.Footprint())
}
