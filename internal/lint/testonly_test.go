package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowed names the production functions that no production code
// calls and that stay anyway, each with its reason. A key is the
// function's directory relative to the module root, a dot, and its name
// (Recv.Name for a method).
var testOnlyAllowed = map[string]string{
	"internal/bounds.MaterializeNormal":         "the Lemma 4.5 worst-case instance of ROADMAP item 11",
	"internal/bounds.Materialization.EntropyOf": "checks item 11's materialized instance",
	"internal/bounds.Monotonize":                "repairs a non-normal optimal vertex for ROADMAP item 11",
	"internal/lattice.Boolean":                  "builds the Boolean algebra 2^[k] that the lattice and bounds tests share",
	"internal/lattice.Lattice.LowerCovers":      "the dual of UpperCovers; the lattice's definition tests check the lower cover lists through it",
	"internal/expand.Inputs.Builds":             "one-line test hook: engine's tests count prepared-input builds",
	"internal/rel.IndexBuilds":                  "one-line test hook: counts index builds across packages' tests",
	"internal/rel.Relation.Cap":                 "one-line test hook: engine's tests read a collector's reserved rows",
	"internal/rel.LimitSink.Pushed":             "one-line test hook: rows a LimitSink forwarded",
	"internal/faultinject.Sites":                "one-line test hook: the registered fault sites",
	"internal/chaosproxy.Proxy.Active":          "one-line test hook: connections a chaos proxy holds open",
}

// implicitMethods are method names the standard library calls through an
// interface, so no identifier in this module names the call.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestNoTestOnlyProductionCode keeps production packages to what some
// program runs: every top-level function or method declared in a non-test
// file under internal/ or cmd/ must be named by some non-test file of the
// module, bench/ included, or be in testOnlyAllowed. It matches names
// only, so a dead function whose name is reused elsewhere goes unseen, but
// a live one is never flagged.
func TestNoTestOnlyProductionCode(t *testing.T) {
	unused := testOnlyScan(t, filepath.Join("..", ".."))
	for _, key := range unused {
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s has no caller outside tests: move it into its package's _test.go files, or allowlist it with a reason", key)
		}
	}
	for key := range testOnlyAllowed {
		if !slices.Contains(unused, key) {
			t.Errorf("allowlisted %s is gone or has a production caller now: drop it from testOnlyAllowed", key)
		}
	}
}

// TestTestOnlyScanFlagsAPlant runs the scan over a module whose one
// exported function nothing calls.
func TestTestOnlyScanFlagsAPlant(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("internal/p/p.go", "package p\n\nfunc Used() int { return 1 }\n\nfunc Planted() int { return 2 }\n\ntype T struct{}\n\nfunc (T) String() string { return \"\" }\n")
	write("internal/p/p_test.go", "package p\n\nvar _ = Planted\n")
	write("cmd/m/main.go", "package main\n\nimport \"m/internal/p\"\n\nfunc main() { _ = p.Used() }\n")
	write("internal/p/testdata/bad.go", "package bad\n\nfunc Ignored() {}\n")
	unused := testOnlyScan(t, root)
	if want := []string{"internal/p.Planted"}; !slices.Equal(unused, want) {
		t.Fatalf("unused = %v, want %v", unused, want)
	}
}

// testOnlyScan parses every non-test .go file under root, skipping
// testdata and hidden directories. It returns, sorted, the functions
// declared under internal/ or cmd/ whose name no file references.
func testOnlyScan(t *testing.T, root string) (unused []string) {
	t.Helper()
	fset := token.NewFileSet()
	refs := map[string]bool{}
	decls := map[string]*ast.FuncDecl{}
	declName := map[*ast.Ident]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		production := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declName[n.Name] = true // a declaration does not reference itself
				if production && n.Name.Name != "main" && n.Name.Name != "init" {
					key := dir + "." + n.Name.Name
					if r := recvName(n); r != "" {
						key = dir + "." + r + "." + n.Name.Name
					}
					decls[key] = n
				}
			case *ast.Ident:
				if !declName[n] {
					refs[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, fn := range decls {
		if name := fn.Name.Name; !refs[name] && !(fn.Recv != nil && implicitMethods[name]) {
			unused = append(unused, key)
		}
	}
	slices.Sort(unused)
	return unused
}

// recvName is the receiver's type name of a method, "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	x := fn.Recv.List[0].Type
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
