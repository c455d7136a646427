package samplewh

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// The documents name Make targets and metrics; these tests fail the moment a
// name they give stops existing in the code.

// makeSpan matches an inline code span that runs a Make target: `make X ...`.
// Prose such as "make it" is not in backticks and does not match.
var makeSpan = regexp.MustCompile("`make\\s+([A-Za-z0-9][A-Za-z0-9_-]*)[^`]*`")

// TestDocsMakeTargetsExist: every `make X` code span in README.md, DESIGN.md
// and the verify skill names a target the Makefile defines.
func TestDocsMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9][A-Za-z0-9_-]*):([^=]|$)`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeSpan.FindAllStringSubmatch(string(data), -1) {
			if !targets[m[1]] {
				t.Errorf("%s: %s names no Makefile target", doc, m[0])
			}
		}
	}
}

// TestMetricsCatalogNamesExist: every metric README's catalog table lists
// is named by the code — a string literal in non-test Go source, or two
// joined (a component prefix and a metric suffix, as "storage.mem" +
// ".puts"). A `{a,b}` group stands for each of its names; a row whose name
// holds a `<placeholder>` is built at run time and exempt.
func TestMetricsCatalogNamesExist(t *testing.T) {
	lits := sourceLiterals(t)
	for _, name := range catalogNames(t) {
		if !composedOf(name, lits) {
			t.Errorf("README metrics catalog lists %q, which no non-test Go source names", name)
		}
	}
}

// TestMetricsCatalogCoversRegistry is the reverse of
// TestMetricsCatalogNamesExist: a swd stack (file store, journal, cache)
// served in process answers one request on every route — create, ingest,
// sample, estimate, roll-out, both metrics formats and the slow-query log —
// and every counter, gauge and histogram its registry then holds matches a
// row of README's catalog.
func TestMetricsCatalogCoversRegistry(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	wh, _, err := warehouse.Open[int64](st, 1)
	if err != nil {
		t.Fatal(err)
	}
	wh.Instrument(reg)
	wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: 1 << 20})
	journal, _, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{}, wal.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	// Every request is slow, so the slow-query log records too.
	srv := server.New(wh, server.Config{SlowLogThreshold: time.Nanosecond, Journal: journal, Registry: reg})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx := context.Background()
	c := server.NewClient(hs.URL, nil)
	if _, err := c.CreateDataset(ctx, server.CreateDatasetRequest{Name: "orders", Algorithm: "HR", NF: 64}); err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"day1", "day2"} {
		var body strings.Builder
		for v := range 1000 {
			body.WriteString(strconv.Itoa(v) + "\n")
		}
		if _, err := c.Ingest(ctx, "orders", part, 0, strings.NewReader(body.String())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Sample(ctx, "orders", server.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(ctx, "orders", "avg", server.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := c.RollOut(ctx, "orders", "day1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, err := c.SlowLog(ctx); err != nil {
		t.Fatal(err)
	}

	rows := catalogPatterns(t)
	snap := reg.Snapshot()
	var names []string
	names = slices.AppendSeq(names, maps.Keys(snap.Counters))
	names = slices.AppendSeq(names, maps.Keys(snap.Gauges))
	names = slices.AppendSeq(names, maps.Keys(snap.Histograms))
	if len(names) < 50 {
		t.Fatalf("the stack registered only %d metrics; the requests did not reach it", len(names))
	}
	for _, name := range slices.Sorted(slices.Values(names)) {
		if !slices.ContainsFunc(rows, func(re *regexp.Regexp) bool { return re.MatchString(name) }) {
			t.Errorf("the server registers %q, which no row of README's metrics catalog names", name)
		}
	}
}

// catalogPatterns returns one pattern per expanded name of README's catalog
// table, each <placeholder> standing for one dotted segment.
func catalogPatterns(t *testing.T) []*regexp.Regexp {
	var out []*regexp.Regexp
	placeholder := regexp.MustCompile(`<[^>]+>`)
	for _, name := range catalogRows(t) {
		for _, n := range expandBraces(name) {
			parts := placeholder.Split(n, -1)
			for i, p := range parts {
				parts[i] = regexp.QuoteMeta(p)
			}
			out = append(out, regexp.MustCompile("^"+strings.Join(parts, `[^.]+`)+"$"))
		}
	}
	return out
}

// catalogNames returns the expanded metric names of README's catalog table,
// less the rows holding a <placeholder>.
func catalogNames(t *testing.T) []string {
	var names []string
	for _, name := range catalogRows(t) {
		if !strings.Contains(name, "<") {
			names = append(names, expandBraces(name)...)
		}
	}
	if len(names) < 50 {
		t.Fatalf("read %d names from the metrics catalog; the table's layout changed", len(names))
	}
	return names
}

// catalogRows returns the code spans of the name column of README's catalog
// table, unexpanded.
func catalogRows(t *testing.T) []string {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "### Metrics catalog\n")
	if !ok {
		t.Fatal("README has no metrics catalog")
	}
	var rows []string
	span := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			if len(rows) > 0 && !strings.HasPrefix(line, "|") {
				break // past the table
			}
			continue
		}
		for _, m := range span.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			rows = append(rows, m[1])
		}
	}
	return rows
}

// expandBraces expands each {a,b,...} group of s.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// sourceLiterals collects every string literal of the module's non-test Go
// source. bench/ is a module of its own and names no product metric.
func sourceLiterals(t *testing.T) map[string]bool {
	lits := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					lits[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lits
}

// composedOf reports whether name is a literal, or two literals joined.
func composedOf(name string, lits map[string]bool) bool {
	if lits[name] {
		return true
	}
	for i := 1; i < len(name); i++ {
		if lits[name[:i]] && lits[name[i:]] {
			return true
		}
	}
	return false
}

// goName matches a code span that is an exported Go name — an identifier with
// a lower-case letter in it (all-caps spans such as `HB` or `SIGTERM` are
// acronyms and signals) — or a pkg.Name.
var goName = regexp.MustCompile(`^(?:([a-z][a-z0-9]*)\.)?([A-Z][A-Za-z0-9_]*)$`)

// TestDocsGoNamesExist: every code span of README.md and DESIGN.md, fenced
// blocks aside, that is an exported Go name names a declaration in the
// repository's Go source, test files and the bench module included, since the
// documents name tests and benchmarks: a bare name is declared anywhere (a
// function, type, method, field, variable or constant), a pkg.Name in the
// package pkg. A pkg that is no package of the repository (`cmp.Ordered`) is
// the standard library's and not checked.
func TestDocsGoNamesExist(t *testing.T) {
	decls := goDecls(t)
	all := map[string]bool{}
	for _, names := range decls {
		for name := range names {
			all[name] = true
		}
	}
	fence := regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	span := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(data), ""), -1) {
			g := goName.FindStringSubmatch(m[1])
			if g == nil || strings.ToUpper(g[2]) == g[2] {
				continue
			}
			switch pkg, ok := decls[g[1]]; {
			case g[1] == "" && !all[g[2]]:
				t.Errorf("%s: `%s` is declared nowhere in the source", doc, m[1])
			case g[1] != "" && ok && !pkg[g[2]]:
				t.Errorf("%s: `%s` is not declared in package %s", doc, m[1], g[1])
			}
		}
	}
}

// goDecls maps each package name of the repository's Go source to the names
// it declares: top-level functions, types, variables and constants, methods,
// and the fields and methods of its struct and interface types.
func goDecls(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		add := func(ids ...*ast.Ident) {
			for _, id := range ids {
				decls[pkg][id.Name] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						add(spec.Names...)
					case *ast.TypeSpec:
						add(spec.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fields, ok := n.(*ast.FieldList); ok {
				for _, field := range fields.List {
					add(field.Names...)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}
