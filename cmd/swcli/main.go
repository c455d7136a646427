// Command swcli manages a file-backed sample warehouse: create data sets,
// ingest partition values through the bounded uniform samplers, roll
// partitions in and out, merge arbitrary partition subsets, and answer
// approximate queries — the full life cycle of the paper's Figure 1. The
// warehouse lives in DIR/samples: the sample files, their sketch sidecars and
// the manifest, which is the only catalog and is opened the way swd opens its
// own (warehouse.Open).
//
// Usage:
//
//	swcli -dir wh create -ds orders -alg HR -nf 8192
//	swgen -dist uniform -n 100000 | swcli -dir wh ingest -ds orders -part day1
//	swcli -dir wh ls
//	swcli -dir wh info -ds orders -part day1
//	swcli -dir wh merge -ds orders -part day1,day2
//	swcli -dir wh estimate -ds orders -q avg
//	swcli -dir wh estimate -ds orders -q count:100..5000
//	swcli -dir wh rollout -ds orders -part day1
//
// The query subcommand is the remote counterpart of estimate: it speaks
// HTTP/JSON to a running swd daemon instead of opening a warehouse directory:
//
//	swcli query -addr http://127.0.0.1:8385
//	swcli query -addr http://127.0.0.1:8385 -ds orders -q avg
//	swcli query -addr http://127.0.0.1:8385 -ds orders -q quantile:0.99 -part day1,day2
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/obs"
	"samplewh/internal/server"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

func main() {
	dir := flag.String("dir", "", "warehouse directory (required except for query)")
	metrics := flag.Bool("metrics", false, "instrument the warehouse and print a metrics report to stderr")
	flag.Parse()
	// query and slowlog speak HTTP to a running swd; they need no local
	// warehouse, so they dispatch before the -dir requirement.
	switch flag.Arg(0) {
	case "query":
		if err := query(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "slowlog":
		if err := slowlog(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	case "cluster":
		if err := clusterCmd(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}
	if *dir == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cli := &cli{dir: *dir}
	if *metrics {
		cli.reg = obs.NewRegistry()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	// fsck reads the manifest as it is stored: opening the warehouse would
	// reconcile it against the samples first, repairing what fsck is there to
	// report.
	err := cli.openStore()
	if err == nil && cmd != "fsck" {
		err = cli.openWarehouse()
	}
	if err == nil {
		switch cmd {
		case "create":
			err = cli.create(args)
		case "ingest":
			err = cli.ingest(args)
		case "ls":
			err = cli.ls(args)
		case "info":
			err = cli.info(args)
		case "merge":
			err = cli.merge(args)
		case "estimate":
			err = cli.estimate(args)
		case "rollout":
			err = cli.rollout(args)
		case "fsck":
			err = cli.fsck(args)
		default:
			usage()
			os.Exit(2)
		}
	}
	// Print the report even on failure — the error counters and latency
	// histograms matter most when something went wrong (fatal os.Exits, so
	// a defer would be skipped).
	if cli.reg != nil {
		fmt.Fprint(os.Stderr, cli.reg.String())
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: swcli -dir DIR COMMAND [flags]
commands:
  create   -ds NAME [-alg HR|HB|SB] [-nf 8192] [-p 0.001] [-rate 0.01]
  ingest   -ds NAME -part ID [-expected N] [-in FILE]   (text values, one per line)
  ls
  info     -ds NAME [-part ID]
  merge    -ds NAME [-part ID1,ID2,...]
  estimate -ds NAME [-part IDS] -q QUERY   (avg | sum | median | distinct | count:LO..HI |
           fraction:LO..HI | quantile:Q | topk:K | groupby:DIV | equidepth:B)
  rollout  -ds NAME -part ID
  fsck     [-fix]   (verify samples, quarantine corrupt ones, reconcile the
           manifest against the samples, check wal/ segments for torn tails
           and orphans, audit sketch sidecars and anti-entropy content hashes —
           -fix drops dangling records and rebuilds missing/stale/corrupt
           sidecars and hashes)
  query    -addr URL [-ds NAME [-q QUERY]] [-part IDS] [-strict] [-timeout D]
           [-confidence 0.95] [-maxerr E] [-maxtime D] [-explain] [-json]
           (against a running swd; no -dir needed. -maxerr/-maxtime bound the
           merge: the server loads partitions in plan order and stops early)
  slowlog  -addr URL [-json]   (a running swd's slow-query log with span trees)
  cluster  status -addr URL [-json]   (a cluster node's membership, breaker,
           placement and self-healing repair view via GET /clusterz)`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "swcli: %v\n", err)
	os.Exit(1)
}

type cli struct {
	dir string
	st  *storage.FileStore[int64]
	wh  *warehouse.Warehouse[int64] // nil under fsck, which works on the store
	reg *obs.Registry               // non-nil when -metrics is set
}

// openStore opens the sample store under DIR/samples.
func (c *cli) openStore() error {
	st, err := storage.NewFileStore[int64](filepath.Join(c.dir, "samples"), storage.Int64Codec{})
	if err != nil {
		return err
	}
	st.Instrument(c.reg) // nil reg = uninstrumented
	c.st = st
	return nil
}

// openWarehouse opens the warehouse over the store from its manifest, as swd
// does, and brings a directory that still has a catalog.json forward.
func (c *cli) openWarehouse() error {
	wh, rep, err := warehouse.Open[int64](c.st, 0x5357434c49) // fixed base seed
	if err != nil {
		return err
	}
	wh.Instrument(c.reg)
	c.wh = wh
	imported, err := c.retireLegacyCatalog()
	if err != nil {
		return err
	}
	// Before an import every sample is an orphan; that report says nothing.
	if !imported && !rep.Clean() {
		fmt.Fprintf(os.Stderr, "swcli: recovery: %s\n", rep)
	}
	return nil
}

// legacyCatalog is the data-set registry swcli used to keep in
// DIR/catalog.json beside the warehouse manifest.
type legacyCatalog struct {
	Datasets map[string]struct {
		Algorithm  string   `json:"algorithm"`
		NF         int64    `json:"nf"`
		P          float64  `json:"p"`
		SBRate     float64  `json:"sb_rate"`
		Partitions []string `json:"partitions"`
	} `json:"datasets"`
}

// retireLegacyCatalog renames DIR/catalog.json out of the way, once. Every
// directory written since sidecars landed has a manifest in step with it, so
// the file is only set aside; a directory whose manifest names no data set is
// older than that, and its catalog is imported first: each data set created
// and each stored sample rolled in again, which seals it and builds its
// sidecar (no seal can predate the manifest). A listed sample that is missing
// or corrupt is left out with a warning, as fsck -fix would drop it.
func (c *cli) retireLegacyCatalog() (imported bool, err error) {
	path := filepath.Join(c.dir, "catalog.json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if len(c.wh.Datasets()) == 0 {
		var cat legacyCatalog
		if err := json.Unmarshal(data, &cat); err != nil {
			return false, fmt.Errorf("catalog corrupt: %w", err)
		}
		for name, e := range cat.Datasets {
			cfg, err := server.DatasetConfig(server.CreateDatasetRequest{Algorithm: e.Algorithm, NF: e.NF, P: e.P, SBRate: e.SBRate})
			if err == nil {
				err = c.wh.CreateDataset(name, cfg)
			}
			if err != nil {
				return false, fmt.Errorf("import %s: %w", name, err)
			}
			for _, p := range e.Partitions {
				smp, err := c.st.Get(name + "/" + p)
				if storage.IsNotFound(err) || storage.IsCorrupt(err) {
					fmt.Fprintf(os.Stderr, "swcli: import: %s/%s left out: %v\n", name, p, err)
					continue
				}
				if err == nil {
					err = c.wh.RollIn(name, p, smp)
				}
				if err != nil {
					return false, fmt.Errorf("import %s/%s: %w", name, p, err)
				}
			}
		}
		imported = true
	}
	return imported, os.Rename(path, path+".retired")
}

func (c *cli) create(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	ds := fs.String("ds", "", "data set name")
	alg := fs.String("alg", "HR", "algorithm: HR, HB or SB")
	nf := fs.Int64("nf", 8192, "sample-size bound nF")
	p := fs.Float64("p", 0.001, "HB exceedance probability")
	rate := fs.Float64("rate", 0, "SB fixed sampling rate (0 = 0.01)")
	fs.Parse(args)
	if *ds == "" {
		return fmt.Errorf("create: -ds required")
	}
	cfg, err := server.DatasetConfig(server.CreateDatasetRequest{Algorithm: *alg, NF: *nf, P: *p, SBRate: *rate})
	if err != nil {
		return err
	}
	if err := c.wh.CreateDataset(*ds, cfg); err != nil {
		return err
	}
	fmt.Printf("created data set %q (alg=%s nF=%d)\n", *ds, *alg, *nf)
	return nil
}

func (c *cli) ingest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	ds := fs.String("ds", "", "data set name")
	part := fs.String("part", "", "partition id")
	expected := fs.Int64("expected", 0, "expected partition size (required for HB)")
	in := fs.String("in", "", "input file (default stdin)")
	format := fs.String("format", "text", "input format: text (one value per line) or binary (little-endian int64)")
	fs.Parse(args)
	if *ds == "" || *part == "" {
		return fmt.Errorf("ingest: -ds and -part required")
	}
	parts, err := c.wh.Partitions(*ds)
	if err != nil {
		return fmt.Errorf("ingest: unknown data set %q", *ds)
	}
	// The warehouse treats a duplicate roll-in as an idempotent replace (for
	// crash-retry convergence); at the CLI a re-used partition ID is almost
	// always operator error, so reject it here.
	if slices.Contains(parts, *part) {
		return fmt.Errorf("ingest: partition %s/%s already exists (rollout first to replace)", *ds, *part)
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	smp, err := c.wh.NewSampler(*ds, *expected)
	if err != nil {
		return err
	}
	var n int64
	switch *format {
	case "text":
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return fmt.Errorf("ingest: line %d: %w", n+1, err)
			}
			smp.Feed(v)
			n++
		}
		if err := sc.Err(); err != nil {
			return err
		}
	case "binary":
		br := bufio.NewReaderSize(r, 1<<20)
		var buf [8]byte
		for {
			_, err := io.ReadFull(br, buf[:])
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("ingest: binary read after %d values: %w", n, err)
			}
			smp.Feed(int64(binary.LittleEndian.Uint64(buf[:])))
			n++
		}
	default:
		return fmt.Errorf("ingest: unknown format %q", *format)
	}
	if n == 0 {
		return fmt.Errorf("ingest: no values read")
	}
	s, err := smp.Finalize()
	if err != nil {
		return err
	}
	if err := c.wh.RollIn(*ds, *part, s); err != nil {
		return err
	}
	fmt.Printf("ingested %d values into %s/%s: %s sample of %d elements (%d bytes)\n",
		n, *ds, *part, s.Kind, s.Size(), s.Footprint())
	return nil
}

func (c *cli) ls(args []string) error {
	names := c.wh.Datasets()
	if len(names) == 0 {
		fmt.Println("(no data sets)")
		return nil
	}
	for _, n := range names {
		cfg, err := c.wh.Config(n)
		if err != nil {
			return err
		}
		parts, err := c.wh.Partitions(n)
		if err != nil {
			return err
		}
		fmt.Printf("%s  alg=%s nF=%d partitions=%d\n", n, cfg.Algorithm, cfg.Core.NF(), len(parts))
		for _, p := range parts {
			info, err := c.wh.Info(n, p)
			if err != nil {
				return err
			}
			fmt.Printf("  %-20s %-10s sample=%-8d parent=%-12d footprint=%dB\n",
				p, info.Kind, info.SampleSize, info.ParentSize, info.Footprint)
		}
	}
	return nil
}

func (c *cli) info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	ds := fs.String("ds", "", "data set name")
	part := fs.String("part", "", "partition id")
	fs.Parse(args)
	if *ds == "" {
		return fmt.Errorf("info: -ds required")
	}
	if *part != "" {
		info, err := c.wh.Info(*ds, *part)
		if err != nil {
			return err
		}
		fmt.Printf("%s/%s: kind=%s sample=%d parent=%d footprint=%dB\n",
			*ds, *part, info.Kind, info.SampleSize, info.ParentSize, info.Footprint)
		return nil
	}
	parts, err := c.wh.Partitions(*ds)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d partitions: %s\n", *ds, len(parts), strings.Join(parts, ", "))
	return nil
}

// mergedSample resolves the -part list (empty = all) into a merged sample.
func partIDs(parts string) []string {
	if parts == "" {
		return nil
	}
	ids := strings.Split(parts, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	return ids
}

func (c *cli) mergedSample(ds, parts string) (*core.Sample[int64], error) {
	return c.wh.MergedSample(ds, partIDs(parts)...)
}

func (c *cli) merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	ds := fs.String("ds", "", "data set name")
	part := fs.String("part", "", "comma-separated partition ids (default all)")
	fs.Parse(args)
	if *ds == "" {
		return fmt.Errorf("merge: -ds required")
	}
	m, err := c.mergedSample(*ds, *part)
	if err != nil {
		return err
	}
	fmt.Printf("merged sample: kind=%s size=%d parent=%d footprint=%dB fraction=%.6f\n",
		m.Kind, m.Size(), m.ParentSize, m.Footprint(), m.Fraction())
	return nil
}

// estimate answers a query as a local swd read does, at 95 % confidence: it
// reads the design swd reads — for count:/fraction: the strata of the
// partitions whose sidecars do not rule the range out, otherwise the merged
// sample — strictly, as ?partial=0 does, and answers it through
// estimate.Answer. equidepth:B is this command's own.
func (c *cli) estimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	ds := fs.String("ds", "", "data set name")
	part := fs.String("part", "", "comma-separated partition ids (default all)")
	q := fs.String("q", "", "query: "+estimate.Grammar+" | equidepth:B")
	fs.Parse(args)
	if *ds == "" || *q == "" {
		return fmt.Errorf("estimate: -ds and -q required")
	}
	if kind, arg, _ := strings.Cut(*q, ":"); kind == "equidepth" {
		b, err := strconv.Atoi(arg)
		if err != nil || b < 2 {
			return fmt.Errorf("estimate: bad equidepth bucket count %q", *q)
		}
		m, err := c.mergedSample(*ds, *part)
		if err != nil {
			return err
		}
		oe, err := estimate.NewOrdered(m, func(a, b int64) bool { return a < b })
		if err != nil {
			return err
		}
		bounds, err := oe.EquiDepth(b)
		if err != nil {
			return err
		}
		fmt.Printf("equi-depth boundaries (%d buckets): %v\n", b, bounds)
		return nil
	}
	query, err := estimate.ParseQuery(*q)
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	ctx, ids := context.Background(), partIDs(*part)
	var d estimate.Design[int64]
	if query.Range() {
		rng := warehouse.SketchRange{Lo: query.Lo, Hi: query.Hi}
		d.Strata, d.Proven, _, err = c.wh.StratifiedRange(ctx, *ds, ids, rng, true, false)
	} else {
		d.Sample, err = c.mergedSample(*ds, *part)
	}
	if err != nil {
		return err
	}
	// The sketch-union answer rides along with distinct and topk when
	// sidecars exist.
	var sk *sketch.Summary
	if query.Sketched() {
		sk, _ = c.wh.DatasetSketch(ctx, *ds, ids...)
	}
	resp, err := estimate.Answer(query, d, 0.95, sk)
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	printResult(*q, resp, 0.95)
	return nil
}

// printResult prints an answer the way estimate and query both do, labelled
// with the query: AVG, COUNT(100..5000), QUANTILE(0.99).
func printResult(q string, r estimate.Result, confidence float64) {
	kind, arg, _ := strings.Cut(q, ":")
	label := strings.ToUpper(kind)
	if arg != "" {
		label += "(" + arg + ")"
	}
	switch {
	case r.Estimate != nil:
		fmt.Printf("%s ≈ %s @ %g%% confidence\n", label, *r.Estimate, 100*confidence)
	case r.Quantile != nil:
		fmt.Printf("%s ≈ %d\n", label, *r.Quantile)
	case r.Distinct != nil:
		fmt.Printf("DISTINCT: in-sample=%d chao1≈%.0f gee≈%.0f\n", r.Distinct.InSample, r.Distinct.Chao1, r.Distinct.GEE)
		if r.Distinct.KMV > 0 {
			// method=kmv only when every sidecar observed every row; a
			// sample-bounded union cannot see values the sampler dropped.
			fmt.Printf("DISTINCT (kmv union) ≈ %.0f (method=%s)\n", r.Distinct.KMV, r.Distinct.Method)
		}
	case r.TopK != nil:
		for i, fe := range r.TopK {
			fmt.Printf("%2d. value=%-12d est_freq≈%.0f (sample %d)\n", i+1, fe.Value, fe.Estimated, fe.InSample)
		}
	default:
		for _, g := range r.Groups {
			fmt.Printf("group %-10d count ≈ %s\n", g.Key, g.Count)
		}
	}
}

func (c *cli) rollout(args []string) error {
	fs := flag.NewFlagSet("rollout", flag.ExitOnError)
	ds := fs.String("ds", "", "data set name")
	part := fs.String("part", "", "partition id")
	fs.Parse(args)
	if *ds == "" || *part == "" {
		return fmt.Errorf("rollout: -ds and -part required")
	}
	// The warehouse-level roll-out is an idempotent no-op on a missing
	// partition; surface the operator-facing error here instead.
	parts, err := c.wh.Partitions(*ds)
	if err != nil {
		return fmt.Errorf("rollout: unknown data set %q", *ds)
	}
	if !slices.Contains(parts, *part) {
		return fmt.Errorf("rollout: partition %s/%s not found", *ds, *part)
	}
	if err := c.wh.RollOut(*ds, *part); err != nil {
		return err
	}
	fmt.Printf("rolled out %s/%s\n", *ds, *part)
	return nil
}

// fsck verifies the warehouse on disk, working on the store and the manifest
// as they are stored rather than on an opened warehouse (whose Open would
// already have reconciled them): stale temp files from killed writes are
// removed, every sample is decode-verified (corrupt files are renamed to
// ".corrupt" siblings by the store), the manifest is reconciled against the
// surviving samples, and write-ahead journal segments (a `wal/` directory in
// the swd layout) are checked for torn tails and orphaned segments. With
// -fix, manifest records whose samples are gone (dangling) are dropped, torn
// journal tails are truncated back to the last valid frame, and fully
// committed journal segments are removed; orphan samples are reported but
// never deleted. Two final passes audit the manifest's per-partition state:
// sketch summaries (missing, stale, or corrupt ones are reported and, with -fix,
// rebuilt from the stored samples) and the partition content hashes cluster
// anti-entropy compares (missing or byte-disagreeing hashes are reported
// and, with -fix, recomputed from the stored bytes).
func (c *cli) fsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	fix := fs.Bool("fix", false, "repair: drop dangling manifest records, rebuild defective sidecars and hashes")
	fs.Parse(args)

	// Pass 1: sweep stale temp files left by killed mid-Put processes. They
	// are invisible to Get/Keys, so removal is always safe.
	var tmps int
	root := filepath.Join(c.dir, "samples")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			if err := os.Remove(path); err != nil {
				return err
			}
			tmps++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fsck: sweep: %w", err)
	}
	if tmps > 0 {
		fmt.Printf("removed %d stale temp file(s)\n", tmps)
	}

	// Pass 2: decode-verify every stored sample. A failed Get quarantines the
	// file as a side effect, so afterwards the key space holds only readable
	// samples.
	keys, err := c.st.Keys("")
	if err != nil {
		return fmt.Errorf("fsck: list: %w", err)
	}
	var corrupt []string
	for _, k := range keys {
		if _, err := c.st.Get(k); err != nil {
			if storage.IsCorrupt(err) {
				corrupt = append(corrupt, k)
				continue
			}
			return fmt.Errorf("fsck: verify %q: %w", k, err)
		}
	}
	for _, k := range corrupt {
		fmt.Printf("corrupt: %s (quarantined)\n", k)
	}

	// Pass 3: reconcile the manifest. Dangling records point at samples that
	// no longer exist (crashed ingest, quarantined corruption); orphans are
	// samples no record claims (crashed rollout or foreign files).
	cRep, err := warehouse.FsckReconcile(c.st, *fix)
	if err != nil {
		return fmt.Errorf("fsck: catalog: %w", err)
	}
	dangling, orphans := cRep.Dangling, cRep.Orphans
	for _, k := range dangling {
		if *fix {
			fmt.Printf("dangling: %s (dropped from catalog)\n", k)
		} else {
			fmt.Printf("dangling: %s (catalog entry without sample; -fix drops it)\n", k)
		}
	}
	for _, k := range orphans {
		fmt.Printf("orphan: %s (sample without catalog entry)\n", k)
	}

	// Pass 4: write-ahead journal segments (the swd layout keeps them under
	// <dir>/wal; a warehouse without a journal skips this pass). Torn tails
	// — a crash mid-append — are truncated back to the last valid frame with
	// -fix; segments whose batches all committed are dead weight the daemon
	// would GC at next start, and -fix removes them now. Sealed batches
	// still awaiting replay are listed informationally: they are the normal
	// crash state the next swd start resolves, not damage.
	walProblems, err := c.fsckWAL(filepath.Join(c.dir, "wal"), *fix)
	if err != nil {
		return err
	}

	// Pass 5: sketch sidecars. Every partition the manifest lists has one
	// mergeable summary stored beside its sample (DESIGN.md §15); a missing,
	// stale, or corrupt sidecar costs partition pruning and sketch-assisted
	// answers, never correctness. With -fix, defective sidecars are rebuilt
	// from the stored samples and those blobs rewritten.
	skRep, err := warehouse.FsckSketches(c.st, *fix)
	if err != nil {
		return fmt.Errorf("fsck: sketches: %w", err)
	}
	for _, k := range skRep.Missing {
		fmt.Printf("sketch missing: %s (-fix rebuilds from the sample)\n", k)
	}
	for _, k := range skRep.Stale {
		fmt.Printf("sketch stale: %s (-fix rebuilds from the sample)\n", k)
	}
	for _, k := range skRep.Corrupt {
		fmt.Printf("sketch corrupt: %s (-fix rebuilds from the sample)\n", k)
	}
	for _, k := range skRep.Fixed {
		fmt.Printf("sketch rebuilt: %s\n", k)
	}
	sketchProblems := skRep.Problems() - len(skRep.Fixed)

	// Pass 6: partition content hashes. Cluster anti-entropy compares these
	// digests to decide whether a replica's copy is stale, so a hash that
	// disagrees with the stored bytes would mask (or fake) divergence. With
	// -fix, hashes are recomputed from the bytes on disk.
	hRep, err := warehouse.FsckHashes(c.st, *fix)
	if err != nil {
		return fmt.Errorf("fsck: hashes: %w", err)
	}
	for _, k := range hRep.Missing {
		fmt.Printf("content hash missing: %s (-fix computes from the stored bytes)\n", k)
	}
	for _, k := range hRep.Mismatched {
		fmt.Printf("content hash mismatch: %s (-fix recomputes from the stored bytes)\n", k)
	}
	for _, k := range hRep.Fixed {
		fmt.Printf("content hash rewritten: %s\n", k)
	}
	hashProblems := hRep.Problems() - len(hRep.Fixed)

	problems := len(corrupt) + len(orphans) + walProblems + sketchProblems + hashProblems
	if !*fix {
		problems += len(dangling)
	}
	if problems == 0 {
		fmt.Println("clean")
		return nil
	}
	return fmt.Errorf("fsck: %d problem(s) found", problems)
}

// fsckWAL is fsck's journal pass; it returns the number of unrepaired
// problems found.
func (c *cli) fsckWAL(walDir string, fix bool) (int, error) {
	rep, err := wal.Inspect(walDir)
	if err != nil {
		return 0, fmt.Errorf("fsck: wal: %w", err)
	}
	problems := 0
	for _, s := range rep.Segments {
		switch {
		case s.Torn && fix:
			removed, err := wal.TruncateTorn(s)
			if err != nil {
				return problems, fmt.Errorf("fsck: wal: %w", err)
			}
			fmt.Printf("wal: %s: torn tail truncated at byte %d (%d bytes dropped)\n",
				s.Name, s.ValidBytes, removed)
		case s.Torn:
			fmt.Printf("wal: %s: torn tail at byte %d (%d trailing bytes; -fix truncates)\n",
				s.Name, s.ValidBytes, s.Size-s.ValidBytes)
			problems++
		case rep.Orphaned(s) && fix:
			if err := os.Remove(s.Path); err != nil {
				return problems, fmt.Errorf("fsck: wal: remove %s: %w", s.Name, err)
			}
			fmt.Printf("wal: %s: orphaned segment removed (every batch committed)\n", s.Name)
		case rep.Orphaned(s):
			// Not counted as a problem: a killed swd always leaves its last
			// fully committed segment behind for next-start GC.
			fmt.Printf("wal: %s: orphaned (every batch committed; swd GCs it at next start, -fix removes now)\n", s.Name)
		}
	}
	for _, e := range rep.Pending() {
		key := ""
		if e.Key != "" {
			key = fmt.Sprintf(", idempotency key %q", e.Key)
		}
		fmt.Printf("wal: pending replay: %s/%s (%d values%s) — replayed at next swd start\n",
			e.Dataset, e.Partition, e.Values, key)
	}
	return problems, nil
}

// query speaks to a running swd daemon. Without -ds it lists the served data
// sets; with -ds alone it describes one; with -q it answers an approximate
// query, surfacing the confidence interval and merge coverage.
func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8385", "swd base URL")
	ds := fs.String("ds", "", "data set name")
	q := fs.String("q", "", "query: "+estimate.Grammar)
	part := fs.String("part", "", "comma-separated partition ids (default all)")
	strict := fs.Bool("strict", false, "fail instead of degrading when a partition is unreadable")
	timeout := fs.Duration("timeout", 0, "server-side deadline (0 = server default)")
	confidence := fs.Float64("confidence", 0, "confidence level (0 = server default 0.95)")
	maxErr := fs.Float64("maxerr", 0, "error bound: stop merging once the interval half-width meets it (count:/fraction: queries)")
	maxTime := fs.Duration("maxtime", 0, "time bound: answer from whatever merged within the budget")
	explain := fs.Bool("explain", false, "ask the server for the request's span tree and print it")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	fs.Parse(args)
	if *q != "" && *ds == "" {
		return fmt.Errorf("query: -q requires -ds")
	}
	if (*maxErr > 0 || *maxTime > 0) && *q == "" {
		return fmt.Errorf("query: -maxerr/-maxtime require -q")
	}

	cl := server.NewClient(*addr, nil)
	ctx := context.Background()
	if *timeout > 0 {
		// The client-side deadline mirrors the server-side one, padded so the
		// server's 504 (with its diagnostic body) wins the race.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout+5*time.Second)
		defer cancel()
	}
	opts := server.QueryOpts{Strict: *strict, Timeout: *timeout, Confidence: *confidence,
		MaxErr: *maxErr, MaxTime: *maxTime, Explain: *explain}
	if *part != "" {
		for _, p := range strings.Split(*part, ",") {
			opts.Parts = append(opts.Parts, strings.TrimSpace(p))
		}
	}

	printJSON := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}

	switch {
	case *ds == "":
		infos, err := cl.Datasets(ctx)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(infos)
		}
		if len(infos) == 0 {
			fmt.Println("(no data sets)")
			return nil
		}
		for _, info := range infos {
			fmt.Printf("%s  alg=%s nF=%d partitions=%d\n", info.Name, info.Algorithm, info.NF, len(info.Partitions))
		}
		return nil
	case *q == "":
		info, err := cl.Dataset(ctx, *ds)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(info)
		}
		fmt.Printf("%s  alg=%s nF=%d\n", info.Name, info.Algorithm, info.NF)
		fmt.Printf("partitions (%d): %s\n", len(info.Partitions), strings.Join(info.Partitions, ", "))
		return nil
	default:
		resp, err := cl.Estimate(ctx, *ds, *q, opts)
		if err != nil {
			return err
		}
		// -strict also rejects a degraded answer the server chose to return
		// anyway (a cluster coordinator degrades instead of failing when
		// discovery was blind); the non-zero exit is the contract scripts
		// depend on. Planner-pruned partitions are not degradation.
		if *strict && resp.Degraded {
			return fmt.Errorf("query: degraded answer under -strict: merged %d/%d partitions (skipped %d)",
				len(resp.Coverage.Merged), len(resp.Coverage.Requested), len(resp.Coverage.Skipped))
		}
		if *asJSON {
			return printJSON(resp)
		}
		printResult(*q, resp.Result, resp.Confidence)
		fmt.Printf("sample: %s of %d values (parent %d, fraction %.6f); served in %.2fms\n",
			resp.Sample.Kind, resp.Sample.Size, resp.Sample.ParentSize, resp.Sample.Fraction,
			float64(resp.ElapsedNS)/1e6)
		if p := resp.Plan; p != nil {
			fmt.Printf("plan: loaded %d/%d partitions (pruned %d, stop=%s)",
				p.Loaded, p.Partitions, p.Pruned, p.StopReason)
			if p.AchievedHalfWidth >= 0 {
				fmt.Printf("; half-width %.4g", p.AchievedHalfWidth)
				if p.MaxErr > 0 {
					fmt.Printf(" (bound %g)", p.MaxErr)
				}
			}
			if p.TotalPopulation > 0 {
				fmt.Printf("; covered %d/%d values", p.CoveredPopulation, p.TotalPopulation)
			}
			fmt.Println()
		}
		if resp.Coverage.Partial {
			fmt.Printf("WARNING: partial answer — merged %d/%d partitions", len(resp.Coverage.Merged), len(resp.Coverage.Requested))
			for _, sk := range resp.Coverage.Skipped {
				fmt.Printf("; skipped %s (%s)", sk.ID, sk.Reason)
			}
			fmt.Println()
		}
		if resp.Trace != nil {
			fmt.Printf("trace %s:\n", resp.TraceID)
			printSpan(*resp.Trace, 1)
		}
		return nil
	}
}

// printSpan renders one span subtree, indented by depth, durations in ms.
func printSpan(sp obs.SpanSnapshot, depth int) {
	fmt.Printf("%s%-16s %9.3fms", strings.Repeat("  ", depth), sp.Name, float64(sp.DurationNS)/1e6)
	keys := make([]string, 0, len(sp.Labels))
	for k := range sp.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%s", k, sp.Labels[k])
	}
	keys = keys[:0]
	for k := range sp.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%d", k, sp.Values[k])
	}
	if sp.DroppedChildren > 0 {
		fmt.Printf("  (+%d children dropped)", sp.DroppedChildren)
	}
	fmt.Println()
	for _, c := range sp.Children {
		printSpan(c, depth+1)
	}
}

// clusterCmd implements `swcli cluster status`: one node's view of the
// cluster — membership with live readiness probes, per-peer breaker state and
// hedge thresholds, and the placement summary of every served data set.
func clusterCmd(args []string) error {
	if len(args) == 0 || args[0] != "status" {
		return fmt.Errorf("cluster: unknown subcommand (want: cluster status -addr URL)")
	}
	fs := flag.NewFlagSet("cluster status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8385", "swd base URL")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	fs.Parse(args[1:])

	cl := server.NewClient(*addr, nil)
	st, err := cl.ClusterStatus(context.Background())
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("shard %d of %d  replication=%d write-quorum=%d vnodes=%d\n",
		st.ShardID, st.Shards, st.Replication, st.WriteQuorum, st.VirtualNodes)
	for _, p := range st.Peers {
		mark := " "
		if p.Self {
			mark = "*"
		}
		state := "down"
		if p.Ready {
			state = "ready"
		}
		fmt.Printf("%s shard %-3d %-28s %-6s breaker=%-9s", mark, p.Shard, p.Addr, state, p.Breaker)
		if p.LatencyP95NS > 0 {
			fmt.Printf("  p95=%.2fms hedge-after=%.2fms",
				float64(p.LatencyP95NS)/1e6, float64(p.HedgeDelayNS)/1e6)
		}
		if p.Error != "" {
			fmt.Printf("  (%s)", p.Error)
		}
		fmt.Println()
	}
	for _, pl := range st.Placement {
		fmt.Printf("data set %s: %d partitions, primaries per shard %v\n",
			pl.Dataset, pl.Partitions, pl.PrimaryCounts)
	}
	if rep := st.Repair; rep != nil {
		fmt.Printf("repair: interval=%s sweeps=%d pulls=%d (errors %d)\n",
			time.Duration(rep.IntervalNS), rep.Sweeps, rep.Pulls, rep.PullErrors)
		if rep.LastSweepUnixNS > 0 {
			fmt.Printf("  last sweep %s ago (%.2fms)\n",
				time.Since(time.Unix(0, rep.LastSweepUnixNS)).Round(time.Second),
				float64(rep.LastSweepDurationNS)/1e6)
		}
		fmt.Printf("  hints: pending=%d replayed=%d dropped=%d\n",
			rep.HintsPending, rep.HintsReplayed, rep.HintsDropped)
		if rep.ReadRepair {
			fmt.Printf("  read repair: on, backlog=%d\n", rep.ReadRepairBacklog)
		} else {
			fmt.Println("  read repair: off")
		}
	}
	return nil
}

// slowlog fetches and renders a running swd's slow-query log.
func slowlog(args []string) error {
	fs := flag.NewFlagSet("slowlog", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8385", "swd base URL")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	fs.Parse(args)

	cl := server.NewClient(*addr, nil)
	resp, err := cl.SlowLog(context.Background())
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	if !resp.Enabled {
		fmt.Println("slow-query log disabled (-slowlog-threshold < 0)")
		return nil
	}
	fmt.Printf("slow-query log: %d recorded, %d retained (threshold %.0fms, ring %d)\n",
		resp.Total, len(resp.Entries), float64(resp.ThresholdNS)/1e6, resp.Size)
	for _, e := range resp.Entries {
		fmt.Printf("\n%s  %s  %s  %.3fms\n",
			e.Time.Format(time.RFC3339), e.TraceID, e.Route, float64(e.DurationNS)/1e6)
		printSpan(e.Trace, 1)
	}
	return nil
}
