package core

import (
	"fmt"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// Stratified is a stratified random sample of the concatenation of several
// disjoint partitions: the per-partition uniform samples are kept separate
// rather than merged, each stratum knowing its own parent size. The paper
// notes (§4.1) that HB/HR samples "can also be simply concatenated, yielding
// a stratified random sample of the concatenation of the parent data-set
// partitions" — stratified estimators (see the estimate package) are often
// sharper than merging when strata differ systematically.
type Stratified[V comparable] struct {
	strata []*Sample[V]
}

// NewStratified assembles a stratified sample from per-partition samples.
// All samples must share a size model; none may be nil or empty of parent
// data.
func NewStratified[V comparable](samples ...*Sample[V]) (*Stratified[V], error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: NewStratified with no strata")
	}
	for i, s := range samples {
		if s == nil || s.Hist == nil {
			return nil, fmt.Errorf("core: stratum %d is nil", i)
		}
		if s.ParentSize <= 0 {
			return nil, fmt.Errorf("core: stratum %d has parent size %d", i, s.ParentSize)
		}
		if i > 0 {
			if err := mergeCompatible(samples[0], s); err != nil {
				return nil, err
			}
		}
	}
	return &Stratified[V]{strata: samples}, nil
}

// Strata returns the per-partition samples (shared, not copied).
func (st *Stratified[V]) Strata() []*Sample[V] { return st.strata }

// NumStrata returns the number of strata.
func (st *Stratified[V]) NumStrata() int { return len(st.strata) }

// ParentSize returns the total parent population across strata.
func (st *Stratified[V]) ParentSize() int64 {
	var n int64
	for _, s := range st.strata {
		n += s.ParentSize
	}
	return n
}

// SampleSize returns the total number of sampled elements across strata.
func (st *Stratified[V]) SampleSize() int64 {
	var n int64
	for _, s := range st.strata {
		n += s.Size()
	}
	return n
}

// Collapse merges the strata into one uniform sample of the union using the
// given pairwise merge (losing the stratification but regaining a bounded
// footprint). The strata are consumed.
func (st *Stratified[V]) Collapse(merge MergeFunc[V], src randx.Source) (*Sample[V], error) {
	return MergeTree(st.strata, merge, src)
}

// UnionBernoulli unions any number of Bernoulli samples of disjoint
// partitions into a single Bernoulli sample of the union, as the paper's
// §4.1 closing note describes: "simply unioning the samples together yields
// a Bern(q) sample from the union of the parent partitions. Such unioning is
// useful when enforcing an upper bound on the sample size is not an issue."
// Every input is thinned to the minimum rate into fresh entries (an exhaustive
// sample is a Bern(1) sample), so the inputs are only read and the result
// aliases none of them. It is Algorithm SB's merge: what a fold of SBMerges
// computes, in one pass.
func UnionBernoulli[V comparable](samples []*Sample[V], src randx.Source) (*Sample[V], error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: UnionBernoulli with no samples")
	}
	minQ := 1.0
	for i, s := range samples {
		if s.Kind != BernoulliKind && s.Kind != Exhaustive {
			return nil, fmt.Errorf("core: UnionBernoulli: sample %d has kind %s", i, s.Kind)
		}
		if err := mergeCompatible(samples[0], s); err != nil {
			return nil, err
		}
		minQ = min(minQ, s.rate())
	}
	cfg, err := samples[0].Config.checked()
	if err != nil {
		return nil, err
	}
	out := &Sample[V]{Kind: BernoulliKind, Q: minQ, Config: cfg}
	kept := make([][]histogram.Entry[V], len(samples))
	for i, s := range samples {
		kept[i] = thin(s.Hist, minQ/s.rate(), src)
		out.ParentSize += s.ParentSize
	}
	out.Hist = join(cfg.SizeModel, nil, kept, cfg.NF())
	if minQ == 1 {
		out.Kind = Exhaustive
	}
	return out, nil
}
