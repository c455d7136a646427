package samplewh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
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

// catalogNames returns the expanded metric names of README's catalog table.
func catalogNames(t *testing.T) []string {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "### Metrics catalog\n")
	if !ok {
		t.Fatal("README has no metrics catalog")
	}
	var names []string
	span := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			if len(names) > 0 && !strings.HasPrefix(line, "|") {
				break // past the table
			}
			continue
		}
		cell := strings.Split(line, "|")[1]
		for _, m := range span.FindAllStringSubmatch(cell, -1) {
			if !strings.Contains(m[1], "<") {
				names = append(names, expandBraces(m[1])...)
			}
		}
	}
	if len(names) < 50 {
		t.Fatalf("read %d names from the metrics catalog; the table's layout changed", len(names))
	}
	return names
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
