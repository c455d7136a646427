package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"samplewh/internal/server"
)

// truth is the exact data behind every answer, regenerated from the seed
// once the window has closed.
type truth struct {
	sc     scale
	sorted [][]int64 // per data source, ascending
	sum    []int64
}

func buildTruth(seed uint64, sc scale, withPool bool) *truth {
	n := sc.parts
	if withPool {
		n += sc.pool
	}
	t := &truth{sc: sc, sorted: make([][]int64, n), sum: make([]int64, n)}
	for src := range t.sorted {
		vals := genValues(seed, sc, src)
		for _, v := range vals {
			t.sum[src] += v
		}
		slices.Sort(vals)
		t.sorted[src] = vals
	}
	return t
}

// all is the partition list a query without parts= covers on a warehouse
// that never rolls.
func (t *truth) all() []int {
	parts := make([]int, t.sc.parts)
	for i := range parts {
		parts[i] = i
	}
	return parts
}

func (t *truth) rows(parts []int) float64 { return float64(len(parts) * t.sc.rows) }

func (t *truth) avg(parts []int) float64 {
	var sum float64
	for _, p := range parts {
		sum += float64(t.sum[t.sc.source(p)])
	}
	return sum / t.rows(parts)
}

// countLE counts rows with value <= v.
func (t *truth) countLE(parts []int, v int64) float64 {
	var n int
	for _, p := range parts {
		s := t.sorted[t.sc.source(p)]
		n += sort.Search(len(s), func(i int) bool { return s[i] > v })
	}
	return float64(n)
}

func (t *truth) countIn(parts []int, lo, hi int64) float64 {
	return t.countLE(parts, hi) - t.countLE(parts, lo-1)
}

// gateReport is what the correctness gate saw. Any non-zero breach count, too
// many intervals missing the truth, or a false flag fails the run.
type gateReport struct {
	Answers          int      `json:"answers_checked"`
	Intervals        int      `json:"intervals"`
	IntervalsHolding int      `json:"intervals_holding_truth"`
	BadStatus        int      `json:"bad_status"`
	Degraded         int      `json:"degraded"`
	CoverageMismatch int      `json:"coverage_mismatch"`
	BoundBreaches    int      `json:"maxerr_breaches"`
	IngestMismatch   int      `json:"ingest_mismatch"`
	ExactlyOnce      bool     `json:"exactly_once"`
	ShutdownClean    bool     `json:"shutdown_clean"`
	Problems         []string `json:"first_problems,omitempty"`
	halfWidthRel     []float64
}

func (g *gateReport) problem(format string, args ...any) {
	if len(g.Problems) < 8 {
		g.Problems = append(g.Problems, fmt.Sprintf(format, args...))
	}
}

// intervalRate is the share of 95 % intervals that held the exact truth.
func (g *gateReport) intervalRate() float64 {
	if g.Intervals == 0 {
		return 1
	}
	return float64(g.IntervalsHolding) / float64(g.Intervals)
}

// intervalsHold is the rule that at least 90 % of 95 % intervals hold the
// truth, with a three-sigma binomial allowance on the count of misses:
// without it the 32-interval audit battery, all that ingest-roll has, would
// fail a sound run about one time in fourteen.
func (g *gateReport) intervalsHold() bool {
	n := float64(g.Intervals)
	return float64(g.Intervals-g.IntervalsHolding) <= 0.1*n+3*math.Sqrt(n*0.05*0.95)
}

func (g *gateReport) pass() bool {
	return g.BadStatus+g.Degraded+g.CoverageMismatch+g.BoundBreaches+g.IngestMismatch == 0 &&
		g.intervalsHold() && g.ExactlyOnce && g.ShutdownClean
}

// interval tallies one 95 % interval; about one in twenty misses by design,
// so a miss is counted, not listed.
func (g *gateReport) interval(holds bool) {
	g.Intervals++
	if holds {
		g.IntervalsHolding++
	}
}

// check verifies one reply against truth and reports whether the request
// counts as served: HTTP status as expected, not degraded, and every
// requested partition accounted for.
func (g *gateReport) check(t *truth, r *request, rep reply) bool {
	g.Answers++
	if rep.status != r.want {
		g.BadStatus++
		g.problem("%s %s: status %d: %.120s", r.method, r.path, rep.status, rep.body)
		return false
	}
	switch r.kind {
	case kindDelete:
		return true
	case kindPut:
		var in server.IngestResponse
		if err := json.Unmarshal(rep.body, &in); err != nil || in.Read != int64(t.sc.rows) ||
			in.Sample.ParentSize != int64(t.sc.rows) || in.Degraded {
			g.IngestMismatch++
			g.problem("PUT %s: read %d, parent %d, err %v", r.path, in.Read, in.Sample.ParentSize, err)
			return false
		}
		return true
	}
	var ans server.EstimateResponse
	if err := json.Unmarshal(rep.body, &ans); err != nil {
		g.BadStatus++
		g.problem("%s: unreadable answer: %v", r.path, err)
		return false
	}
	parts := r.parts
	if parts == nil {
		parts = t.all()
	}
	served := true
	if ans.Degraded || ans.Coverage.Partial {
		g.Degraded++
		g.problem("%s: degraded", r.path)
		served = false
	}
	cov := ans.Coverage
	accounted := len(cov.Merged) + len(cov.SketchPruned)
	if r.kind == kindBounded {
		accounted += len(cov.Pruned)
	}
	if len(cov.Requested) != len(parts) || accounted != len(parts) {
		g.CoverageMismatch++
		g.problem("%s: requested %d, merged %d + sketch-pruned %d + pruned %d, want %d", r.path,
			len(cov.Requested), len(cov.Merged), len(cov.SketchPruned), len(cov.Pruned), len(parts))
		served = false
	}
	switch r.kind {
	case kindQuantile:
		// A quantile answer carries no interval; it holds when the answer's
		// true rank is within the 95 % sampling band of the asked rank.
		if ans.Quantile == nil {
			g.BadStatus++
			return false
		}
		n := float64(ans.Sample.Size)
		band := 1.96*math.Sqrt(r.q*(1-r.q)/n) + 1/n
		rank := t.countLE(parts, *ans.Quantile) / t.rows(parts)
		g.interval(math.Abs(rank-r.q) <= band)
		return served
	}
	if ans.Estimate == nil {
		g.BadStatus++
		g.problem("%s: no estimate", r.path)
		return false
	}
	e := *ans.Estimate
	var exact float64
	switch r.kind {
	case kindAvg:
		exact = t.avg(parts)
		if exact != 0 {
			g.halfWidthRel = append(g.halfWidthRel, (e.Hi-e.Lo)/2/math.Abs(exact))
		}
	case kindCount:
		exact = t.countIn(parts, r.lo, r.hi)
	case kindFraction, kindBounded:
		exact = t.countIn(parts, r.lo, r.hi) / t.rows(parts)
	}
	g.interval(e.Lo <= exact && exact <= e.Hi)
	if r.kind == kindBounded {
		// A bounded answer may leave partitions unread only if its half-width
		// met the bound; with full coverage it is as tight as the data allow.
		if ans.Plan == nil {
			g.BoundBreaches++
			g.problem("%s: no plan in a bounded answer", r.path)
		} else if len(cov.Pruned) > 0 && ans.Plan.AchievedHalfWidth > r.maxErr {
			g.BoundBreaches++
			g.problem("%s: half-width %g over maxerr with %d partitions unread", r.path,
				ans.Plan.AchievedHalfWidth, len(cov.Pruned))
		}
	}
	return served
}

// exactlyOnce checks the catalog after a rolling run: the live partitions are
// exactly the expected run of numbers, in order, and each one's parent size
// is the rows sent — so no acknowledged roll was lost, doubled or resurrected.
func (g *gateReport) exactlyOnce(cl *client, sc scale, oldest int) {
	g.ExactlyOnce = false
	host := cl.addr
	get := func(path string, out any) bool {
		r := request{method: "GET", path: path, want: 200}
		r.render(host)
		status, body, err := cl.do(&r)
		if err != nil || status != 200 || json.Unmarshal(body, out) != nil {
			g.problem("GET %s: status %d, err %v", path, status, err)
			return false
		}
		return true
	}
	var info server.DatasetInfo
	if !get("/v1/datasets/"+datasetName, &info) {
		return
	}
	if len(info.Partitions) != sc.parts {
		g.problem("catalog lists %d partitions, want %d", len(info.Partitions), sc.parts)
		return
	}
	for i, name := range info.Partitions {
		if name != partName(oldest+i) {
			g.problem("catalog position %d holds %s, want %s", i, name, partName(oldest+i))
			return
		}
		var p server.PartitionInfo
		if !get("/v1/datasets/"+datasetName+"/partitions/"+name, &p) {
			return
		}
		if p.ParentSize != int64(sc.rows) {
			g.problem("%s: parent size %d, want %d", name, p.ParentSize, sc.rows)
			return
		}
	}
	g.ExactlyOnce = true
}
