package ebv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesAreImported keeps the facade from regrowing width: every
// exported alias ebv.go and cluster.go re-export (type X = pkg.X, var/const
// X = pkg.X), and every exported top-level function of the root package (a
// Pipeline option constructor, say), must be named by a file under cmd/,
// benchmark/ or internal/ (internal/serve is built on the facade), by a
// root _test.go (example_test.go holds the runnable demos), or by an
// exported signature of the root package itself (a Pipeline option's
// parameter type, a Session method's result). A name that fails all three is API nothing imports — delete it,
// or add the caller that needs it.
func TestFacadeNamesAreImported(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	var facade []string
	for _, path := range rootFiles {
		f := parse(path)
		switch {
		case strings.HasSuffix(path, "_test.go"):
			collectSelectors(f, named)
		default:
			collectSignatureIdents(f, named)
			if path == "ebv.go" || path == "cluster.go" {
				facade = append(facade, aliasNames(f)...)
			}
			facade = append(facade, funcNames(f)...)
		}
	}
	for _, dir := range []string{"cmd", "benchmark", "internal"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				collectSelectors(parse(path), named)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for _, name := range facade {
		if !named[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of %d facade aliases and root functions are named by nothing in cmd/, benchmark/, internal/, a root test or an exported root signature:\n  %s",
			len(unused), len(facade), strings.Join(unused, "\n  "))
	}
}

// aliasNames lists the exported names f declares as aliases: type X = …,
// and every var/const spec.
func aliasNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Assign.IsValid() && s.Name.IsExported() {
					out = append(out, s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, n.Name)
					}
				}
			}
		}
	}
	return out
}

// funcNames lists the exported top-level functions f declares (methods
// are reached through their receiver's type and are not listed).
func funcNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
			out = append(out, fd.Name.Name)
		}
	}
	return out
}

// collectSelectors records X for every ebv.X in a file that imports the
// root package.
func collectSelectors(f *ast.File, into map[string]bool) {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "ebv" {
			local = "ebv"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				into[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// collectSignatureIdents records every identifier an exported signature of
// a root non-test file mentions: the parameter and result types of exported
// functions and methods, and the field types of exported defined types.
func collectSignatureIdents(f *ast.File, into map[string]bool) {
	record := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				into[id.Name] = true
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				record(d.Type)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if s, ok := spec.(*ast.TypeSpec); ok && s.Name.IsExported() && !s.Assign.IsValid() {
					record(s.Type)
				}
			}
		}
	}
}
