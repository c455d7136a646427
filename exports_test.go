package samplewh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowList names every exported identifier under internal/ that no
// non-test Go source of this module (bench/ aside) references, with the one
// reason it stays. A key is "internal/pkg.Name" for a package-level name and
// "internal/pkg.Type.Method" for a method. A reason begins with one of
// exportReasons' prefixes.
var exportAllowList = map[string]string{
	// What the benchmark harness compiles against.
	"internal/estimate.BoundedFractionProvenZero":             "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/estimate.StratifiedEstimator.CountPruned":       "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/estimate.StratifiedEstimator.FractionPruned":    "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/warehouse.Warehouse.CacheStats":                 "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/warehouse.Warehouse.MergedSamplePartialContext": "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/warehouse.Warehouse.PartitionStatsSnapshot":     "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/warehouse.Warehouse.SketchSnapshot":             "bench: bench/trace.go's replay; goes with ROADMAP 2(b)",
	"internal/wal.SyncAlways":                                 "bench: bench/stack.go's journal options; goes with ROADMAP 2(c)",
	"internal/obs.NewMemorySink":                              "bench: bench/stack.go's event ring, now a stub; goes with ROADMAP 2(c)",
	"internal/obs.Registry.SetSink":                           "bench: bench/stack.go's event ring, now a stub; goes with ROADMAP 2(c)",
	"internal/server.Server.FinishDrain":                      "bench: bench/stack.go's shutdown, now a stub; goes with ROADMAP 2(c)",

	// The paper's baselines and figures.
	"internal/core.NewCounting":              "paper baseline: §3.3's counting sampler (DESIGN.md, non-uniform baselines)",
	"internal/core.ConciseSampler.Purges":    "paper baseline: §3.3's concise sampler, whose purges concise_test.go counts",
	"internal/core.NewMultiPurge":            "paper baseline: §4.1's multiple-purge variant, timed by BenchmarkMultiPurgeVsHB (DESIGN.md)",
	"internal/core.MultiPurgeSampler.Purges": "paper baseline: §4.1's multiple-purge variant, whose purges its tests count",
	"internal/experiments.RunPipeline":       "paper baseline: the Figures 9–16 pipeline the figure benchmarks DESIGN.md lists time",

	// Exact laws and slow paths the statistical tests check draws against.
	"internal/randx.HypergeomDist.PMF":          "reference: the exact law hypergeometric draws are χ²-tested against",
	"internal/randx.HypergeomDist.SampleLinear": "reference: the inversion sampler the fast path is compared with",
	"internal/randx.HypergeomDist.Support":      "reference: the bounds the draw tests check",
	"internal/randx.LogBinomialPMF":             "reference: the exact law binomial draws are χ²-tested against",
	"internal/randx.LogChoose":                  "reference: the log-coefficient the PMF tests are checked by",
	"internal/randx.NormalCDF":                  "reference: the inverse NormalQuantile is round-tripped through",
	"internal/randx.Zipf.PMF":                   "reference: the exact law Zipf draws are χ²-tested against",
	"internal/workload.ValueAt":                 "reference: the per-position value the generator's output is checked against",

	// Hooks that let a test substitute or observe what the product does.
	"internal/faults.Wrap":                       "test seam: wraps a store with fault injection",
	"internal/faults.NewTransport":               "test seam: a fault-injecting transport for a peer's HTTP client",
	"internal/faults.Store.SetSleep":             "test seam: substitutes the injector's sleeper",
	"internal/faults.Transport.SetSleep":         "test seam: substitutes the injector's sleeper",
	"internal/core.HB.Phase":                     "test seam: tests read Figure 2's phase at each transition",
	"internal/core.HR.Phase":                     "test seam: tests read the phase at each transition",
	"internal/core.HB.CurrentFootprint":          "test seam: tests check the footprint bound F while feeding",
	"internal/core.HR.CurrentFootprint":          "test seam: tests check the footprint bound F while feeding",
	"internal/core.SymmetricMerger.CachedTables": "test seam: tests check that merge tables are reused",
	"internal/histogram.Histogram.Equal":         "test seam: tests in every package compare samples by value",
	"internal/storage.StringCodec":               "test seam: tests run stores and warehouses over string values",
	"internal/stream.Splitter.Fed":               "test seam: tests read each lane's count",
	"internal/workload.Generator.Remaining":      "test seam: tests read the generator's position",
	"internal/server.Client.Retries":             "test seam: tests count the client's retries",

	// Names a later item uses or removes.
	"internal/warehouse.Warehouse.RollInSketched": "later: ROADMAP 9(a) builds the sidecar in the stream with it",
	"internal/core.Stratified.Collapse":           "later: ROADMAP 16(b) drops or moves it",
	"internal/fenwick.FromCounts":                 "later: ROADMAP 15 deletes internal/fenwick",
}

// stdlibCalls are method names the standard library calls through its own
// interfaces (errors.Is and As, fmt, net/http, encoding/json), which no
// selector in this module need name.
var stdlibCalls = []string{"Error", "String", "Unwrap", "RoundTrip", "ServeHTTP", "MarshalJSON", "UnmarshalJSON"}

// exportReasons are the reasons an unreferenced export may stay. "bench: "
// must name the bench/ file that compiles against it and the ROADMAP item
// (2(b) or 2(c)) that frees it; "later: " must name its ROADMAP item.
var exportReasons = []string{
	"test seam: ",
	"reference: ",      // a reference implementation the tests compare against
	"paper baseline: ", // a baseline of the paper that DESIGN.md cites
	"bench: ",
	"later: ",
}

// TestNoUnusedExports: every exported name under internal/ is referenced by
// non-test source outside its own declaration, or is on exportAllowList with
// a valid reason, and every allow-list entry is still needed.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := moduleSource(t, fset)

	t.Run("planted", func(t *testing.T) {
		f, err := parser.ParseFile(fset, "planted.go", "package obs\n\nfunc PlantedUnused() {}\n", parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		withPlant := maps.Clone(pkgs)
		withPlant["internal/obs"] = append(slices.Clone(pkgs["internal/obs"]), f)
		if !slices.Contains(unusedExports(withPlant), "internal/obs.PlantedUnused") {
			t.Fatal("the scan missed an exported function nothing calls")
		}
	})

	unused := unusedExports(pkgs)
	for _, name := range unused {
		if _, ok := exportAllowList[name]; !ok {
			t.Errorf("%s is exported but nothing outside tests references it: delete it, or give it a reason in exportAllowList", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(exportAllowList)) {
		reason := exportAllowList[name]
		if !slices.Contains(unused, name) {
			t.Errorf("exportAllowList: %s is referenced (or gone); drop its entry", name)
		}
		valid := slices.ContainsFunc(exportReasons, func(p string) bool { return strings.HasPrefix(reason, p) })
		switch {
		case !valid:
			t.Errorf("exportAllowList: %s: reason %q starts with none of %q", name, reason, exportReasons)
		case strings.HasPrefix(reason, "bench: ") && (!strings.Contains(reason, "bench/") ||
			!strings.Contains(reason, "ROADMAP 2(b)") && !strings.Contains(reason, "ROADMAP 2(c)")):
			t.Errorf("exportAllowList: %s: a bench reason names the bench/ file and ROADMAP 2(b) or 2(c): %q", name, reason)
		case strings.HasPrefix(reason, "later: ") && !strings.Contains(reason, "ROADMAP "):
			t.Errorf("exportAllowList: %s: a later reason names its ROADMAP item: %q", name, reason)
		}
	}
}

// moduleSource parses the module's non-test Go files, keyed by directory.
// bench/ is a module of its own and is left out: a name only it uses is
// allow-listed, so the list shows what the benchmark holds in place.
func moduleSource(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// exportDecl is one exported declaration: where it is declared, and the span
// of its declaration, inside which a mention is not a use.
type exportDecl struct {
	dir, name, method string
	pos, end          token.Pos
}

// unusedExports returns the sorted keys of the exported names declared under
// internal/ that no file of pkgs references outside their own declaration.
// A package-level name counts as referenced by a bare mention in its own
// package or a pkg.Name selector through an import of it; a method by any
// selector of its name (a call through an interface is one), by an
// interface of the module that lists it, or by being one of stdlibCalls. A
// method's receiver does not reference its type.
func unusedExports(pkgs map[string][]*ast.File) []string {
	var decls []exportDecl
	for dir, files := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					e := exportDecl{dir: dir, name: d.Name.Name, pos: d.Pos(), end: d.End()}
					if d.Recv != nil {
						e.name, e.method = receiverType(d.Recv.List[0].Type), d.Name.Name
					}
					decls = append(decls, e)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() {
								decls = append(decls, exportDecl{dir: dir, name: spec.Name.Name, pos: spec.Pos(), end: spec.End()})
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.IsExported() {
									decls = append(decls, exportDecl{dir: dir, name: id.Name, pos: spec.Pos(), end: spec.End()})
								}
							}
						}
					}
				}
			}
		}
	}

	pkgName := map[string]string{} // dir → package name
	for dir, files := range pkgs {
		pkgName[dir] = files[0].Name.Name
	}
	bare := map[string][]token.Pos{}      // "dir.Name" → mentions in dir's own files
	qualified := map[string]bool{}        // "dir.Name" → named as pkg.Name elsewhere
	selectors := map[string][]token.Pos{} // method name → selectors and interface methods
	for dir, files := range pkgs {
		for _, f := range files {
			imports := map[string]string{} // local name → dir
			for _, imp := range f.Imports {
				idir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "samplewh/")
				if !ok {
					continue
				}
				local := pkgName[idir]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = idir
			}
			notBare := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								notBare[id] = true
							}
							return true
						})
					}
				case *ast.SelectorExpr:
					notBare[n.Sel] = true
					selectors[n.Sel.Name] = append(selectors[n.Sel.Name], n.Sel.Pos())
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						qualified[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							selectors[id.Name] = append(selectors[id.Name], id.Pos())
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !notBare[id] {
					bare[dir+"."+id.Name] = append(bare[dir+"."+id.Name], id.Pos())
				}
				return true
			})
		}
	}

	var out []string
	for _, e := range decls {
		outside := func(p token.Pos) bool { return p < e.pos || p >= e.end }
		key := e.dir + "." + e.name
		used := qualified[key] || slices.ContainsFunc(bare[key], outside)
		if e.method != "" {
			key += "." + e.method
			used = slices.Contains(stdlibCalls, e.method) || slices.ContainsFunc(selectors[e.method], outside)
		}
		if !used {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out
}

// receiverType returns the type name of a method receiver: T of T, *T, T[V]
// or *T[V].
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
