package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseTestPackage builds a Package (without type info) from source, for
// exercising the directive machinery in isolation.
func parseTestPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{
		PkgPath:   "ebv/internal/lint/testpkg",
		Name:      "p",
		Fset:      fset,
		Files:     []*ast.File{f},
		Filenames: []string{"d.go"},
	}
}

func TestDirectiveParsing(t *testing.T) {
	src := `package p

//ebv:owns the caller   recycles
func f() {}

//ebv:owns
var z = 3

var x = 1 //ebv:nolint detorder a reason no longer suppresses

//ebv:
var w = 4
`
	want := []directive{{"owns", "the caller recycles", 0}, {"owns", "", 0}, {"nolint", "detorder a reason no longer suppresses", 0}, {"", "", 0}}
	ds := parseTestPackage(t, src).Directives()
	if len(ds) != len(want) {
		t.Fatalf("got %d directives, want %d", len(ds), len(want))
	}
	for i, d := range ds {
		if d.verb != want[i].verb || d.reason != want[i].reason || !d.pos.IsValid() {
			t.Errorf("directive %d parsed as %+v, want verb %q and reason %q", i, d, want[i].verb, want[i].reason)
		}
	}
}

func TestOwnsAnnotated(t *testing.T) {
	src := `package p

// mint hands the batch to its caller.
//
//ebv:owns caller recycles after the exchange drains
func mint() {}

func bare() {}
`
	pkg := parseTestPackage(t, src)
	var mint, bare *ast.FuncDecl
	for _, d := range pkg.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			switch fd.Name.Name {
			case "mint":
				mint = fd
			case "bare":
				bare = fd
			}
		}
	}
	if !ownsAnnotated(pkg, mint) {
		t.Errorf("mint's doc-comment //ebv:owns not recognized")
	}
	if ownsAnnotated(pkg, bare) {
		t.Errorf("bare reported owns-annotated without a directive")
	}
}
