package samplewh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// configSetters names, for every exported field of the configuration types a
// deployment fills in, the non-test file that sets it. A setting no such file
// varies is a constant of its package, not a field. A field only tests set
// stays only as a named test seam, with its reason.
var configSetters = map[string]map[string]string{
	"internal/server.Config": {
		"DefaultTimeout":   "cmd/swd/main.go",
		"SlowLogThreshold": "cmd/swd/main.go",
		"Journal":          "cmd/swd/main.go",
		"Registry":         "cmd/swd/main.go",
	},
	"internal/server.ClusterConfig": {
		"Peers":          "cmd/swd/main.go",
		"ShardID":        "cmd/swd/main.go",
		"Replication":    "cmd/swd/main.go",
		"WriteQuorum":    "cmd/swd/main.go",
		"HedgeInitial":   "cmd/swd/main.go",
		"BreakerOpen":    "cmd/swd/main.go",
		"RepairInterval": "cmd/swd/main.go",
		"Hints":          "cmd/swd/main.go",
		"HTTPClient":     "test seam: tests plug fault-injecting transports in per peer",
	},
	"internal/warehouse.QueryConfig": {
		"CacheBytes": "cmd/swd/main.go",
	},
	"internal/wal.Options": {
		"Policy":   "bench/stack.go",
		"Registry": "cmd/swd/main.go",
		"Schedule": "test seam: fault injection into appends and fsyncs (ROADMAP, Parked)",
	},
}

// TestConfigFieldsHaveSetters holds configSetters and the source to each
// other: each listed type has exactly the listed exported fields, and each
// named file mentions its field.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range slices.Sorted(maps.Keys(configSetters)) {
		want := configSetters[name]
		dir, typ, _ := strings.Cut(name, ".")
		got := exportedFields(t, fset, dir, typ)
		if !slices.Equal(got, slices.Sorted(maps.Keys(want))) {
			t.Errorf("%s has exported fields %v; configSetters lists %v", name, got, slices.Sorted(maps.Keys(want)))
		}
		for field, setter := range want {
			if strings.HasPrefix(setter, "test seam: ") {
				continue
			}
			f, err := parser.ParseFile(fset, setter, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			mentioned := false
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == field {
					mentioned = true
				}
				return !mentioned
			})
			if !mentioned {
				t.Errorf("%s.%s: %s, listed as its setter, never names it", name, field, setter)
			}
		}
	}
}

// exportedFields returns the sorted exported field names of struct type typ,
// declared in the non-test source of dir.
func exportedFields(t *testing.T, fset *token.FileSet, dir, typ string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return !found
			}
			found = true
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range field.Names {
					if id.IsExported() {
						names = append(names, id.Name)
					}
				}
			}
			return false
		})
		if found {
			slices.Sort(names)
			return names
		}
	}
	t.Fatalf("no type %s in %s", typ, dir)
	return nil
}
