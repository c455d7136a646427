package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale fixes the benchmark's shape. Nothing in it depends on --seed: the
// seed changes the random draws (row values, drawn subsets, range jitter,
// the server's merge randomness), never a count, a width or the op rotation.
type scale struct {
	nf        int64         // sample bound n_F of the data set
	parts     int           // live partitions (a multiple of pool)
	rows      int           // rows per partition
	subset    int           // partitions per merge query (a multiple of pool)
	pool      int           // pre-rendered roll bodies; also the audit battery's residue classes
	rangeW    int           // range-cold range width, in strides
	rangeStep int           // range-cold start advance per op, in strides
	warmup    time.Duration // untimed run of the same op stream before the window
	slices    int           // equal cuts of the window
	audit     int           // avg queries in the post-window audit battery
	replayOps int           // ops the traced run replays at each depth
	setups    int           // set-ups per run; setup_s is their median
}

// fullScale is the shape BENCHMARK.json measures: Algorithm HR at n_F = 8192
// (64 KiB per sample), 64 partitions of 65 536 near-unique rows.
var fullScale = scale{
	nf: 8192, parts: 64, rows: 65536, subset: 16, pool: 8,
	rangeW: 8, rangeStep: 23,
	warmup: 3 * time.Second, slices: 8, audit: 32, replayOps: 200, setups: 3,
}

// toyScale is the same shape small enough for `go test`.
var toyScale = scale{
	nf: 256, parts: 8, rows: 2048, subset: 4, pool: 4,
	rangeW: 2, rangeStep: 3,
	warmup: 200 * time.Millisecond, slices: 8, audit: 8, replayOps: 16, setups: 1,
}

// stride is S: partition i holds values uniform in [i·S, i·S + 2S), so
// neighbours overlap by half and a value range selects an exact number of
// partitions. S = 16·rows keeps values near-unique (the paper's hard case:
// every sample a full reservoir, every merge the hypergeometric branch).
func (sc scale) stride() int64 { return 16 * int64(sc.rows) }

const datasetName = "bench"

func partName(n int) string { return fmt.Sprintf("p%04d", n) }

// rng is xorshift64*, seeded through splitmix64 so nearby seeds diverge. It
// is the harness's own generator: inputs must not change with the Go release.
type rng struct{ s uint64 }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRNG(seed, stream uint64) *rng {
	s := splitmix(seed ^ splitmix(stream))
	if s == 0 {
		s = 1
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 2685821657736338717
}

// intn returns a draw in [0, n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// source maps a partition number to the data it holds: the first sc.parts
// partitions are distinct; every later one reuses a pool body.
func (sc scale) source(part int) int {
	if part < sc.parts {
		return part
	}
	return sc.parts + (part-sc.parts)%sc.pool
}

// genValues regenerates the rows of one data source from the seed. Truth is
// rebuilt through this after the window instead of being held in memory.
func genValues(seed uint64, sc scale, src int) []int64 {
	r := newRNG(seed, uint64(src)+1)
	s := sc.stride()
	base := int64(src) * s
	vals := make([]int64, sc.rows)
	for i := range vals {
		vals[i] = base + int64(r.intn(uint64(2*s)))
	}
	return vals
}

// renderBody formats rows the way the ingest endpoint reads them: decimal
// text, one value per line.
func renderBody(vals []int64) []byte {
	buf := make([]byte, 0, len(vals)*10)
	for _, v := range vals {
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// reqKind tells the verifier how to read a response.
type reqKind uint8

const (
	kindAvg reqKind = iota
	kindQuantile
	kindCount
	kindFraction
	kindBounded // fraction with maxerr: the planned path
	kindPut
	kindDelete
)

// request is one generated HTTP request plus what the verifier needs to
// recompute its exact answer.
type request struct {
	kind   reqKind
	method string
	path   string
	key    string // Idempotency-Key
	body   []byte // shared with the body pool; never written
	want   int    // expected status
	head   []byte // rendered request line and headers

	part   int   // partition number a PUT or DELETE names
	parts  []int // partition numbers the query names; nil = every live partition
	lo, hi int64 // range predicate bounds (closed)
	q      float64
	maxErr float64
}

// op is the unit every end-to-end metric counts: one to four requests sent
// back to back on the one connection.
type op struct{ reqs []request }

func (r *request) render(host string) {
	var b strings.Builder
	b.WriteString(r.method)
	b.WriteByte(' ')
	b.WriteString(r.path)
	b.WriteString(" HTTP/1.1\r\nHost: ")
	b.WriteString(host)
	b.WriteString("\r\n")
	if r.key != "" {
		b.WriteString("Idempotency-Key: ")
		b.WriteString(r.key)
		b.WriteString("\r\n")
	}
	if r.body != nil {
		b.WriteString("Content-Length: ")
		b.WriteString(strconv.Itoa(len(r.body)))
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	r.head = []byte(b.String())
}

func partsParam(parts []int) string {
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = partName(p)
	}
	return strings.Join(names, ",")
}

func estimatePath(q string, parts []int, extra string) string {
	p := "/v1/datasets/" + datasetName + "/estimate?q=" + q
	if parts != nil {
		p += "&parts=" + partsParam(parts)
	}
	return p + extra
}

const boundedMaxErr = 0.05

// workload names, in BENCHMARK.json order.
var workloadNames = []string{"merge-warm", "range-cold", "ingest-roll", "roll-query"}

// cacheBytes is the -cache setting each workload serves under: swd's 64 MiB
// default, except range-cold, which gets room for rangeW samples when every
// op loads rangeW+1 — so every load misses and evicts.
func (sc scale) cacheBytes(workload string) int64 {
	if workload == "range-cold" {
		return int64(sc.rangeW) * sc.nf * 8
	}
	return 64 << 20
}

// rolling reports whether the workload writes partitions.
func rolling(workload string) bool { return workload == "ingest-roll" || workload == "roll-query" }

// stream generates one workload's ops, in chunks so the timed loop only
// indexes a slice. Op j is a pure function of (seed, workload, j).
type stream struct {
	sc       scale
	workload string
	seed     uint64
	host     string
	draw     *rng
	pool     [][]byte // roll bodies
	poolSum  [][32]byte
	ops      []op
	next     int // index of the next op to hand out
	digest   hash.Hash
	hashed   int // ops folded into digest so far
}

// opsHashed is the stream prefix ops_sha256 covers; the number of ops a run
// completes varies with the host, the digest must not.
const opsHashed = 256

func newStream(sc scale, workload string, seed uint64, host string, pool [][]byte, setupDigest hash.Hash) *stream {
	s := &stream{sc: sc, workload: workload, seed: seed, host: host,
		draw: newRNG(seed, 0x0b5), pool: pool, digest: setupDigest}
	for _, b := range pool {
		s.poolSum = append(s.poolSum, sha256.Sum256(b))
	}
	s.extend(opsHashed)
	return s
}

// extend generates ops until at least n more are available.
func (s *stream) extend(n int) {
	for len(s.ops)-s.next < n {
		j := len(s.ops)
		o := s.gen(j)
		for i := range o.reqs {
			o.reqs[i].render(s.host)
		}
		if s.hashed < opsHashed {
			for i := range o.reqs {
				r := &o.reqs[i]
				fmt.Fprintf(s.digest, "%s %s %s\n", r.method, r.path, r.key)
				if r.body != nil {
					sum := s.poolSum[j%s.sc.pool]
					s.digest.Write(sum[:])
				}
			}
			s.hashed++
		}
		s.ops = append(s.ops, o)
	}
}

// take hands out the next op, generating a further chunk when the stream
// runs dry (outside any op's timing).
func (s *stream) take() *op {
	if s.next == len(s.ops) {
		s.extend(1024)
	}
	o := &s.ops[s.next]
	s.next++
	return o
}

func (s *stream) sha256() string { return hex.EncodeToString(s.digest.Sum(nil)) }

func (s *stream) gen(j int) op {
	sc := s.sc
	switch s.workload {
	case "merge-warm":
		// Three ops in four name a freshly drawn subset; every fourth re-asks
		// the newest window. avg and quantile alternate, and the alternation
		// shifts by one every four ops so the repeat is not always a quantile.
		var parts []int
		if j%4 == 3 {
			parts = newest(sc.parts, sc.subset)
		} else {
			parts = s.drawSubset()
		}
		if (j+j/4)%2 == 0 {
			return op{reqs: []request{avgRequest(parts)}}
		}
		return op{reqs: []request{{kind: kindQuantile, method: "GET", want: 200, parts: parts, q: 0.9,
			path: estimatePath("quantile:0.9", parts, "")}}}
	case "range-cold":
		// The range covers rangeW strides, so exactly rangeW+1 partitions
		// overlap it; the start advances rangeStep strides per op, so
		// consecutive ops share no partition. The seed only jitters the ends
		// inward by under a sixteenth of a stride.
		st := sc.stride()
		c := int64(1 + (sc.rangeStep*j)%(sc.parts-sc.rangeW))
		lo := c*st + int64(s.draw.intn(uint64(st/16)))
		hi := (c+int64(sc.rangeW))*st - 1 - int64(s.draw.intn(uint64(st/16)))
		kind, name := kindCount, "count"
		if j%2 == 1 {
			kind, name = kindFraction, "fraction"
		}
		return op{reqs: []request{{kind: kind, method: "GET", want: 200, lo: lo, hi: hi,
			path: estimatePath(fmt.Sprintf("%s:%d..%d", name, lo, hi), nil, "")}}}
	case "ingest-roll":
		return op{reqs: s.roll(j)}
	case "roll-query":
		// The roll, then a full merge of the newest window, then a bounded
		// fraction over the same window with the range on the middle half of
		// its value span (the planned path).
		reqs := s.roll(j)
		parts := newest(sc.parts+j+1, sc.subset)
		reqs = append(reqs, avgRequest(parts))
		st := sc.stride()
		spanLo, spanHi := int64(1)<<62, int64(0)
		for _, p := range parts {
			b := int64(sc.source(p)) * st
			spanLo, spanHi = min(spanLo, b), max(spanHi, b+2*st)
		}
		quarter := (spanHi - spanLo) / 4
		lo, hi := spanLo+quarter, spanHi-quarter
		reqs = append(reqs, request{kind: kindBounded, method: "GET", want: 200, parts: parts,
			lo: lo, hi: hi, maxErr: boundedMaxErr,
			path: estimatePath(fmt.Sprintf("fraction:%d..%d", lo, hi), parts,
				"&maxerr="+strconv.FormatFloat(boundedMaxErr, 'g', -1, 64))})
		return op{reqs: reqs}
	}
	panic("unknown workload " + s.workload)
}

func avgRequest(parts []int) request {
	return request{kind: kindAvg, method: "GET", want: 200, parts: parts, path: estimatePath("avg", parts, "")}
}

// roll is op j of the rolling workloads: PUT partition parts+j from the body
// pool under an Idempotency-Key, then DELETE partition j, so sc.parts stay live.
func (s *stream) roll(j int) []request {
	n := s.sc.parts + j
	base := "/v1/datasets/" + datasetName + "/partitions/"
	return []request{
		{kind: kindPut, method: "PUT", want: 201, part: n, path: base + partName(n),
			key: fmt.Sprintf("bench-%d-%d", s.seed, n), body: s.pool[j%s.sc.pool]},
		{kind: kindDelete, method: "DELETE", want: 200, part: j, path: base + partName(j)},
	}
}

// newest returns the subset highest partition numbers below end.
func newest(end, subset int) []int {
	parts := make([]int, subset)
	for i := range parts {
		parts[i] = end - subset + i
	}
	return parts
}

// drawSubset draws sc.subset distinct partitions of the first sc.parts,
// ascending.
func (s *stream) drawSubset() []int {
	idx := make([]int, s.sc.parts)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < s.sc.subset; i++ {
		k := i + int(s.draw.intn(uint64(len(idx)-i)))
		idx[i], idx[k] = idx[k], idx[i]
	}
	parts := idx[:s.sc.subset]
	sort.Ints(parts)
	return parts
}

// auditSubsets is the fixed audit battery: sc.audit subsets of the live
// partitions, each taking subset/pool members of every residue class modulo
// pool. The draw uses a constant, not --seed, and balancing the classes makes
// a subset's make-up the same on a rolled warehouse (where a class is one
// pool body) whatever the number of rolls — so ci_halfwidth_rel compares
// like with like across seeds and runs.
func auditSubsets(sc scale, oldest int) [][]int {
	r := newRNG(0xa0d17, 1)
	perClass, classSize := sc.subset/sc.pool, sc.parts/sc.pool
	out := make([][]int, sc.audit)
	for a := range out {
		var parts []int
		for c := 0; c < sc.pool; c++ {
			// First live partition of class c, then every pool-th after it.
			first := oldest + ((c-oldest)%sc.pool+sc.pool)%sc.pool
			ranks := make([]int, classSize)
			for i := range ranks {
				ranks[i] = i
			}
			for i := 0; i < perClass; i++ {
				k := i + int(r.intn(uint64(classSize-i)))
				ranks[i], ranks[k] = ranks[k], ranks[i]
				parts = append(parts, first+ranks[i]*sc.pool)
			}
		}
		sort.Ints(parts)
		out[a] = parts
	}
	return out
}
