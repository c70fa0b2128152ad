// Package lint is the engine's custom static-analysis suite: a set of
// analyzers that mechanize the repo-specific invariants the test suite
// can only check dynamically — pooled MessageBatch ownership (DESIGN.md
// §7), deterministic iteration on wire/output paths, cooperative context
// cancellation, the transport teardown-cause discipline, and checked
// writer teardown. cmd/ebv-lint is the multichecker driver; CI runs it
// alongside go vet and staticcheck.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic, analysistest-style fixtures under
// testdata/src) but is built on the standard library only: type
// information comes from `go list -export` plus the std gc importer, so
// the suite needs no module dependencies and the library build stays
// dependency-free. No diagnostic can be suppressed. Ownership-transferring
// returns of pooled batches are documented with //ebv:owns <reason>, which
// the nolintlint analyzer validates (the reason is mandatory, and any
// other //ebv: verb is an error).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and by
	// ebv-lint -run.
	Name string
	// Doc is the one-paragraph description of the enforced invariant.
	Doc string
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{BatchOwn, CtxFlow, DetOrder, TeardownCause, CloseErr, NolintLint}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message states the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers runs the given analyzers over the packages and returns
// every diagnostic, sorted by file, line, column and analyzer.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if err := a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags}); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// inspectStack walks every file in pre-order, calling fn with each node
// and its ancestor stack (outermost first, n excluded). Returning false
// skips n's children.
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// scopedTo reports whether the package is in an analyzer's scope: either
// its import path matches one of the given module-relative paths exactly,
// or it is the analyzer's own test fixture (a package under
// testdata/src/<analyzer>). Fixtures live outside the real scope paths,
// so path-scoped analyzers escape-hatch them in.
func scopedTo(pkg *Package, analyzer string, paths ...string) bool {
	if strings.Contains(pkg.PkgPath, "/testdata/src/"+analyzer) {
		return true
	}
	for _, p := range paths {
		if pkg.PkgPath == p {
			return true
		}
	}
	return false
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedIn reports whether t (after deref) is the named type name declared
// in a package whose path is pkgPath or ends with "/"+pkgPath — the
// suffix form matches both "ebv/internal/transport" and any module name
// the repo might be vendored under.
func namedIn(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgPath || strings.HasSuffix(path, "/"+pkgPath)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return namedIn(t, "context", "Context")
}

// funcOf resolves a call expression's callee as a *types.Func (methods
// and package functions; nil for builtins, func-typed variables and
// type conversions).
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// calleeName returns the bare name a call is spelled with ("GetBatch" in
// both transport.GetBatch(..) and GetBatch(..)), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isPkgFunc reports whether the call resolves to the package-level
// function pkgPath.name (pkgPath matched exactly or as a suffix).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	f := funcOf(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	if path != pkgPath && !strings.HasSuffix(path, "/"+pkgPath) {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// recvType returns the receiver type of a method call (the type of the
// selector's operand), or nil for non-method calls.
func recvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if f := funcOf(info, call); f == nil || f.Type().(*types.Signature).Recv() == nil {
		return nil // package-qualified call or non-method
	}
	return info.TypeOf(sel.X)
}

// enclosingFunc returns the innermost FuncDecl ancestor on the stack (the
// function whose body the node lexically belongs to), or nil at package
// scope.
func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
