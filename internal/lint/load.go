package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package under analysis.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	TypesInfo *types.Info

	directives []directive // lazily collected; see Directives
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching the given go package patterns
// (run from dir, which must lie inside the module) and returns them ready
// for analysis. Only non-test Go files are loaded — the suite's
// invariants govern production code, and tests legitimately reach for
// context.Background, raw batches and friends.
//
// Dependency type information comes from export data produced by
// `go list -deps -export`, so loading needs no network and no module
// downloads: every dependency of this module is the standard library or
// the module itself. Explicit paths may name testdata packages (the
// analyzers' fixtures); wildcard patterns skip testdata as usual.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	// One importer serves every target: std packages load once, and module
	// packages imported by other targets resolve from their export data.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", t.ImportPath, t.Error.Err)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg := &Package{
			PkgPath: t.ImportPath,
			Name:    t.Name,
			Dir:     t.Dir,
			Fset:    fset,
		}
		for _, gf := range t.GoFiles {
			path := filepath.Join(t.Dir, gf)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			pkg.Files = append(pkg.Files, f)
			pkg.Filenames = append(pkg.Filenames, path)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %v", t.ImportPath, err)
		}
		pkg.Types = tpkg
		pkg.TypesInfo = info
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
