package estimate

import (
	"fmt"
	"strconv"
	"strings"

	"samplewh/internal/sketch"
)

// Grammar is the query language every read answers — swd's ?q=, local or
// coordinated, and swcli's -q; LO..HI is a closed value range, Q lies in
// [0, 1].
const Grammar = "avg | sum | median | distinct | count:LO..HI | fraction:LO..HI | quantile:Q | topk:K | groupby:DIV"

// Query is one parsed query of the Grammar.
type Query struct {
	Kind   string  // avg, sum, median, distinct, count, fraction, quantile, topk or groupby
	Lo, Hi int64   // count and fraction: the value range
	Q      float64 // median (½) and quantile
	K      int64   // topk: K; groupby: DIV
}

// ParseQuery is the one reader of the query grammar.
func ParseQuery(s string) (Query, error) {
	kind, arg, hasArg := strings.Cut(s, ":")
	q := Query{Kind: kind}
	var err error
	switch {
	case !hasArg && (kind == "avg" || kind == "sum" || kind == "distinct"):
	case !hasArg && kind == "median":
		q.Q = 0.5
	case hasArg && (kind == "count" || kind == "fraction"):
		loRaw, hiRaw, ok := strings.Cut(arg, "..")
		if !ok {
			return q, fmt.Errorf("bad range %q (want %s:LO..HI)", s, kind)
		}
		var err2 error
		q.Lo, err = strconv.ParseInt(loRaw, 10, 64)
		q.Hi, err2 = strconv.ParseInt(hiRaw, 10, 64)
		if err != nil || err2 != nil || q.Lo > q.Hi {
			return q, fmt.Errorf("bad range bounds %q", s)
		}
	case hasArg && kind == "quantile":
		if q.Q, err = strconv.ParseFloat(arg, 64); err != nil || !(q.Q >= 0 && q.Q <= 1) {
			return q, fmt.Errorf("bad quantile %q (want Q in [0,1])", s)
		}
	case hasArg && (kind == "topk" || kind == "groupby"):
		if q.K, err = strconv.ParseInt(arg, 10, 64); err != nil || q.K < 1 {
			return q, fmt.Errorf("bad %s %q (want a positive integer)", kind, s)
		}
	default:
		return q, fmt.Errorf("unknown query %q (want %s)", s, Grammar)
	}
	return q, nil
}

// Range reports whether q is a count or a fraction: the kinds Interval
// composes, so the only ones whose fraction-scale error a maxerr bound can
// promise and the ones sketch sidecars can prune partitions for.
func (q Query) Range() bool { return q.Kind == "count" || q.Kind == "fraction" }

// Pred is a range query's predicate: the value lies in [Lo, Hi].
func (q Query) Pred() func(int64) bool {
	lo, hi := q.Lo, q.Hi
	return func(v int64) bool { return v >= lo && v <= hi }
}

// Sketched reports whether q's answer uses the sketch union of the covered
// partitions (distinct and topk).
func (q Query) Sketched() bool { return q.Kind == "distinct" || q.Kind == "topk" }

// DistinctResult carries the distinct-count estimators. The sample-based
// trio (InSample, Chao1, GEE) extrapolates from the merged sample; KMV is the
// sketch-union answer, exact until the union saturates its K smallest-hash
// slots and a small-relative-error estimate after. Method names the
// authoritative estimator: "kmv" when every covered partition (and, in
// cluster mode, every shard) contributed a sidecar that observed every row
// (stream-built, or built from an exhaustive sample), "sample" otherwise. The
// sample-based fallback is biased low on skewed multi-partition data — the
// merged sample subsamples the union, losing rare values — so treat GEE as a
// lower-confidence answer, not an upper bound.
type DistinctResult struct {
	InSample int64   `json:"in_sample"`
	Chao1    float64 `json:"chao1"`
	GEE      float64 `json:"gee"`
	KMV      float64 `json:"kmv,omitempty"`
	Method   string  `json:"method,omitempty"`
}

// Result is one answer: exactly the field its query's kind selects is set.
type Result struct {
	Estimate *Estimate          `json:"estimate,omitempty"`
	Quantile *int64             `json:"quantile,omitempty"`
	Distinct *DistinctResult    `json:"distinct,omitempty"`
	TopK     []FreqEntry[int64] `json:"topk,omitempty"`
	// TopKHeavy is the sketch-union answer to topk queries (space-saving
	// counts with per-entry error bounds), populated when every covered
	// partition contributed a sidecar that observed every row; TopK stays
	// the sample-scaled view.
	TopKHeavy []sketch.HeavyHit    `json:"topk_heavy,omitempty"`
	Groups    []GroupResult[int64] `json:"groups,omitempty"`
}

// Answer evaluates q over the design d of one read at the given confidence:
// count and fraction compose d through Interval, every other kind reads d's
// merged sample. sk, when non-nil, is the sketch union of the covered
// partitions — the authoritative distinct/topk source when it observed every
// row, with the sample-based estimators kept alongside.
func Answer(q Query, d Design[int64], confidence float64, sk *sketch.Summary) (Result, error) {
	var r Result
	set := func(e Estimate, err error) (Result, error) {
		if err != nil {
			return Result{}, err
		}
		r.Estimate = &e
		return r, nil
	}
	if q.Range() {
		z, err := ZCrit(confidence)
		if err != nil {
			return r, err
		}
		return set(Interval(d, q.Pred(), q.Kind == "fraction", z))
	}
	est, err := NewWithConfidence(d.Sample, confidence)
	if err != nil {
		return r, err
	}
	value := func(v int64) float64 { return float64(v) }
	observedAll := sk != nil && (sk.Source == sketch.SourceStream || sk.Exhaustive)
	switch q.Kind {
	case "avg":
		return set(est.Avg(value))
	case "sum":
		return set(est.Sum(value))
	case "median", "quantile":
		oe, err := NewOrdered(d.Sample, func(a, b int64) bool { return a < b })
		if err != nil {
			return r, err
		}
		v, err := oe.Quantile(q.Q)
		if err != nil {
			return r, err
		}
		r.Quantile = &v
	case "distinct":
		r.Distinct = &DistinctResult{InSample: est.DistinctNaive(), Chao1: est.DistinctChao1(), GEE: est.DistinctGEE(), Method: "sample"}
		if sk != nil {
			// KMV is authoritative only when the union observed every row; a
			// sample-source union hashed only sampled values, so its estimate
			// is bounded by the sample and the extrapolating estimators stay
			// the best answer.
			r.Distinct.KMV = sk.DistinctEstimate()
			if observedAll {
				r.Distinct.Method = "kmv"
			}
		}
	case "topk":
		if r.TopK = est.TopK(int(q.K)); r.TopK == nil {
			r.TopK = []FreqEntry[int64]{}
		}
		// Heavy-hitter counts are population-scale only when the union
		// observed every row; sample-scale counts would mislead.
		if observedAll {
			r.TopKHeavy = sk.TopK(int(q.K))
		}
	case "groupby":
		if r.Groups, err = GroupBy(est, func(v int64) int64 { return v / q.K }); err != nil {
			return Result{}, err
		}
	default:
		return r, fmt.Errorf("unknown query %q", q.Kind)
	}
	return r, nil
}
