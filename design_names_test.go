package distlock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goDecls is what the module declares, as DESIGN.md may name it.
type goDecls struct {
	pkgs    map[string]map[string]bool   // package name -> its top-level names
	members map[string]map[string]string // type name -> field or method -> the field's type name
	names   map[string]bool              // every top-level, field and method name
	stdlib  map[string]bool              // last element of every standard-library import
}

// parseModule parses every Go file of the module, tests included.
func parseModule(t *testing.T) goDecls {
	t.Helper()
	d := goDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]string{},
		names: map[string]bool{}, stdlib: map[string]bool{}}
	member := func(typ, name, of string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]string{}
		}
		d.members[typ][name] = of
		d.names[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		top := func(name string) { d.pkgs[pkg][name], d.names[name] = true, true }
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p, "distlock") {
				d.stdlib[p[strings.LastIndex(p, "/")+1:]] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top(decl.Name.Name)
				} else {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name, "")
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						top(spec.Name.Name)
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							for _, fld := range typ.Fields.List {
								for _, n := range fld.Names {
									member(spec.Name.Name, n.Name, typeName(fld.Type))
								}
								if len(fld.Names) == 0 { // embedded
									member(spec.Name.Name, typeName(fld.Type), typeName(fld.Type))
								}
							}
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, n := range m.Names {
									member(spec.Name.Name, n.Name, "")
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top(n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeName is the name a type expression is declared under: T for T, *T,
// []T, pkg.T and T[P].
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.ArrayType:
		return typeName(e.Elt)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

// resolves reports whether a backticked name is declared: a bare name
// anywhere, pkg.Name in that package (and pkg.Type.Member on), and
// Type.Member on any type of that name, following a field's type for a
// longer chain.
func (d goDecls) resolves(name string) bool {
	segs := strings.Split(name, ".")
	if len(segs) == 1 {
		return d.names[name]
	}
	if decls, ok := d.pkgs[segs[0]]; ok {
		if !decls[segs[1]] {
			return false
		}
		segs = segs[1:]
	} else if d.stdlib[segs[0]] {
		return true
	}
	types := []string{segs[0]}
	for _, m := range segs[1:] {
		var next []string
		for _, typ := range types {
			if of, ok := d.members[typ][m]; ok {
				next = append(next, of)
			}
		}
		if len(next) == 0 {
			return false
		}
		types = next
	}
	return true
}

var (
	// goName is a backticked Go name: Name, pkg.Name or Type.Member, with
	// more members chained.
	goName = regexp.MustCompile("`([A-Za-z]\\w*(?:\\.[A-Za-z]\\w*)*)`")
	// paperNotation is the paper's notation (lock steps Lx, Ux, Sx and
	// transactions Ti), not Go.
	paperNotation = regexp.MustCompile(`^[LUST][a-z]$`)
)

// TestDesignNamesResolve keeps DESIGN.md current: every Go name it puts in
// backticks must still be declared somewhere in the module, so deleting a
// mechanism fails here until its prose goes. Skipped: names qualified by a
// standard-library package, the paper's Lx/Ux notation, all-lowercase bare
// words (package, flag-value and label names read the same), names with an
// underscore (metric names) and file names.
func TestDesignNamesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	d := parseModule(t)
	seen := map[string]bool{}
	for _, m := range goName.FindAllStringSubmatch(string(doc), -1) {
		name := m[1]
		ext := name[strings.LastIndex(name, ".")+1:]
		switch {
		case seen[name], paperNotation.MatchString(name), strings.Contains(name, "_"),
			!strings.Contains(name, ".") && strings.ToLower(name) == name,
			strings.Contains(name, ".") && (ext == "go" || ext == "md" || ext == "txn" || ext == "yml"):
			continue
		}
		seen[name] = true
		if !d.resolves(name) {
			t.Errorf("DESIGN.md names `%s`, which the module does not declare", name)
		}
	}
	if len(seen) == 0 {
		t.Fatal("found no Go names in DESIGN.md")
	}
}
