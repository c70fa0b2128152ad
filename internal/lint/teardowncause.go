package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// TeardownCause mechanizes the two-phase teardown discipline that took
// PRs 5 and 6 of flake-chasing to establish in the transport mux: when a
// deployment tears down, every node's failure cause is recorded BEFORE
// any connection closes, so a demux or exchange observing the induced
// EOF / "use of closed network connection" reports the recorded cause
// (ErrClosed → ErrSessionClosed) instead of the raw connection error.
//
// The bug class is a mux/deployment method returning a raw connection
// I/O error directly: under a teardown race the raw error wins and the
// caller sees garbage ~5% of runs. The analyzer flags a return of an
// error produced by connection/frame I/O from a mux, mesh-node or
// deployment method that never consults the recorded cause (the node's failed field, or
// its fail/markFailed/failure helpers).
var TeardownCause = &Analyzer{
	Name: "teardowncause",
	Doc:  "transport mux/deployment code must route conn errors through the node's pre-marked failure cause, not return them raw",
	Run:  runTeardownCause,
}

var muxRecvRe = regexp.MustCompile(`(?i)(mux|mesh|deployment)`)

func runTeardownCause(pass *Pass) error {
	if !scopedTo(pass.Pkg, "teardowncause", "ebv/internal/transport") {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if !muxRecvRe.MatchString(recvTypeName(fd)) {
				continue
			}
			checkTeardownReturns(pass, fd)
		}
	}
	return nil
}

func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// causeHelpers are the names through which the recorded failure cause is
// consulted or installed; a function touching any of them is considered
// cause-aware and trusted to map raw errors itself.
func consultsCause(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "failed", "failure", "fail", "markFailed", "failJob":
			found = true
		}
		return !found
	})
	return found
}

// connIOFuncs name the frame codecs and I/O helpers whose errors are raw
// connection errors in mux/deployment context.
func isConnIOCall(info *types.Info, call *ast.CallExpr) bool {
	name := calleeName(call)
	switch name {
	case "readJobFrameV4", "writeJobFrameV4":
		return true
	case "ReadFull", "ReadAtLeast", "Copy":
		return isPkgFunc(info, call, "io", name)
	case "Read", "Write", "Flush", "ReadByte", "WriteByte":
		rt := recvType(info, call)
		if rt == nil {
			return false
		}
		return namedIn(rt, "net", "TCPConn") || isNetConn(rt) ||
			namedIn(rt, "bufio", "Reader") || namedIn(rt, "bufio", "Writer")
	}
	return false
}

func isNetConn(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net" && strings.HasSuffix(obj.Name(), "Conn")
}

func checkTeardownReturns(pass *Pass, fd *ast.FuncDecl) {
	if consultsCause(fd) {
		return
	}
	info := pass.Pkg.TypesInfo

	// Pass 1: error variables assigned from connection/frame I/O.
	raw := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fromIO := false
		for _, rhs := range as.Rhs {
			ast.Inspect(rhs, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isConnIOCall(info, call) {
					fromIO = true
				}
				return true
			})
		}
		if !fromIO {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if obj := assignTarget(info, id); obj != nil && isErrorType(obj.Type()) {
				raw[obj] = true
			}
		}
		return true
	})
	if len(raw) == 0 {
		return
	}

	// Pass 2: returns carrying a raw error (bare or fmt.Errorf-wrapped).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if usesRawErr(info, res, raw) {
				pass.Reportf(ret.Pos(),
					"raw connection error returned from %s: under a teardown race this reports the induced EOF instead of the recorded cause — route it through the node's failure cause (markFailed/fail/failure; the PR 5/6 flake class)",
					fd.Name.Name)
				return true
			}
		}
		return true
	})
}

func usesRawErr(info *types.Info, e ast.Expr, raw map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && raw[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
