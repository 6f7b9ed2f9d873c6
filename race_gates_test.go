package distlock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRaceGatesResolve: every line of ci/race_gates.txt names a test its
// package declares, so a renamed or deleted test cannot leave a gate
// silently (go test -run passes when it matches nothing).
func TestRaceGatesResolve(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("ci", "race_gates.txt"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{} // package dir -> its top-level funcs in _test.go files
	gated := 0
	for i, line := range strings.Split(string(raw), "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) < 2 || !strings.HasPrefix(f[0], "Test") {
			t.Errorf("race_gates.txt:%d: %q is not <test> <package> <flags...>", i+1, line)
			continue
		}
		dir := filepath.Clean(f[1])
		if declared[dir] == nil {
			declared[dir] = testFuncs(t, dir)
		}
		if !declared[dir][f[0]] {
			t.Errorf("race_gates.txt:%d: %s declares no %s", i+1, f[1], f[0])
		}
		gated++
	}
	if gated == 0 {
		t.Fatal("race_gates.txt gates no test")
	}
}

// testFuncs returns the names of the functions the _test.go files of one
// package directory declare.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s: no test files (%v)", dir, err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}
