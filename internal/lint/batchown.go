package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BatchOwn mechanizes the pooled MessageBatch ownership contract
// (DESIGN.md §7):
//
//  1. The `in` batch a WorkerProgram receives in Superstep is only valid
//     during the call — the engine recycles it afterwards. The parameter,
//     any local alias of it, and anything aliasing its memory (in.IDs,
//     in.Vals, in.Row(i)) must not be returned, stored into a field,
//     slice, map, composite literal or package-level variable, appended,
//     sent on a channel, captured by a function literal, used in a
//     deferred or go statement, or recycled by the program itself.
//  2. Every pooled batch obtained from transport.GetBatch /
//     Env.NewBatch in non-test code must reach
//     transport.RecycleBatch on some path, or visibly transfer
//     ownership: stored into a structure (out[dst] = env.NewBatch()
//     hands it to the engine) or sent on a channel. Transfers via return
//     or append hand the recycle obligation to the caller and must be
//     documented with an //ebv:owns directive on the function.
//
// The dynamic counterpart is the EBV_DEBUG=1 poison mode, which scribbles
// recycled batches so retention bugs fail as NaN cascades under load;
// this analyzer fails the same bug class in CI in seconds.
var BatchOwn = &Analyzer{
	Name: "batchown",
	Doc:  "pooled MessageBatch ownership: Superstep's in must not escape; GetBatch results must be recycled or visibly transferred",
	Run:  runBatchOwn,
}

const transportPath = "internal/transport"

// isMessageBatchPtr reports whether t is *transport.MessageBatch.
func isMessageBatchPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return namedIn(t, transportPath, "MessageBatch")
}

func runBatchOwn(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSuperstepEscapes(pass, fd)
			}
		}
	}
	checkPoolDiscipline(pass)
	return nil
}

// ---- rule 1: Superstep's in parameter must not escape ----------------

func checkSuperstepEscapes(pass *Pass, fd *ast.FuncDecl) {
	if fd.Name.Name != "Superstep" || fd.Recv == nil {
		return
	}
	info := pass.Pkg.TypesInfo
	var inObj types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isMessageBatchPtr(obj.Type()) {
					inObj = obj
				}
			}
		}
	}
	if inObj == nil {
		return // unnamed or no batch parameter: nothing can escape
	}

	aliases := aliasSet(info, fd.Body, inObj)
	inspectStack([]*ast.File{{Name: ast.NewIdent("_"), Decls: []ast.Decl{fd}}},
		func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !aliases[info.Uses[id]] {
				return true
			}
			if why := classifyBatchUse(info, id, stack); why != "" {
				pass.Reportf(id.Pos(),
					"Superstep's in batch %s: in is only valid during the call — the engine recycles it afterwards (DESIGN.md §7)", why)
			}
			return true
		})
}

// aliasingFields and aliasingMethods are the MessageBatch members whose
// values alias the batch's memory.
func isAliasingField(name string) bool  { return name == "IDs" || name == "Vals" }
func isAliasingMethod(name string) bool { return name == "Row" }

// aliasSet computes, to a fixed point, the local variables that alias
// obj's memory through plain assignments of the batch, its columns, or
// its rows (x := in; ids := in.IDs; row := x.Row(i); ...).
func aliasSet(info *types.Info, body *ast.BlockStmt, obj types.Object) map[types.Object]bool {
	aliases := map[types.Object]bool{obj: true}
	var aliasingExpr func(e ast.Expr) bool
	aliasingExpr = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return aliases[info.Uses[x]]
		case *ast.SelectorExpr:
			return isAliasingField(x.Sel.Name) && aliasingExpr(x.X)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				return isAliasingMethod(sel.Sel.Name) && aliasingExpr(sel.X)
			}
		case *ast.SliceExpr:
			return aliasingExpr(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return aliasingExpr(x.X)
			}
		case *ast.StarExpr:
			return aliasingExpr(x.X)
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !aliasingExpr(rhs) {
					continue
				}
				if lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
					if tgt := assignTarget(info, lhs); tgt != nil && !aliases[tgt] {
						aliases[tgt] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return aliases
}

// classifyBatchUse walks outward from an aliasing identifier use and
// classifies it; "" means the use is safe (reads, element access,
// comparisons, synchronous call arguments, local aliasing handled by
// aliasSet).
func classifyBatchUse(info *types.Info, id *ast.Ident, stack []ast.Node) string {
	// A use inside a nested function literal outlives the stack frame the
	// contract is scoped to, whether or not the literal escapes.
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return "is captured by a function literal"
		}
	}
	cur := ast.Expr(id)
	lastSel := ""
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ParenExpr, *ast.KeyValueExpr:
			continue
		case *ast.SelectorExpr:
			if ast.Unparen(n.X) != cur {
				return "" // id is the field/method name of another operand
			}
			if isAliasingField(n.Sel.Name) {
				cur = n
				continue
			}
			// Method selection: only Row's result keeps aliasing; remember
			// the name for the enclosing CallExpr.
			lastSel = n.Sel.Name
			cur = n
			continue
		case *ast.SliceExpr:
			if ast.Unparen(n.X) == cur {
				cur = n
				continue
			}
			return "" // an index operand: scalar use
		case *ast.IndexExpr:
			return "" // element read/write: values are copied
		case *ast.StarExpr:
			cur = n
			continue
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				cur = n
				continue
			}
			return ""
		case *ast.BinaryExpr:
			return "" // comparisons and arithmetic yield fresh values
		case *ast.CallExpr:
			if ast.Unparen(n.Fun) == cur {
				// Method call on the alias: only Row returns aliasing memory.
				if isAliasingMethod(lastSel) {
					cur = n
					lastSel = ""
					continue
				}
				return ""
			}
			// The alias is an argument.
			if isBuiltinAppend(info, n) {
				return "is appended to a slice"
			}
			switch calleeName(n) {
			case "RecycleBatch", "RecycleMessageBatch":
				return "is recycled by the program (the engine owns and recycles in)"
			case "copy":
				return "" // copying out of the batch is the sanctioned idiom
			}
			if i > 0 {
				switch stack[i-1].(type) {
				case *ast.GoStmt:
					return "is handed to a goroutine"
				case *ast.DeferStmt:
					return "is used in a deferred call (it runs after the batch is recycled)"
				}
			}
			return "" // synchronous call: consumed during the superstep
		case *ast.ReturnStmt:
			return "is returned"
		case *ast.SendStmt:
			if ast.Unparen(n.Value) == cur {
				return "is sent on a channel"
			}
			return ""
		case *ast.CompositeLit:
			return "is stored in a composite literal"
		case *ast.AssignStmt:
			for j, rhs := range n.Rhs {
				if ast.Unparen(rhs) != cur {
					continue
				}
				if j >= len(n.Lhs) {
					break
				}
				switch l := ast.Unparen(n.Lhs[j]).(type) {
				case *ast.Ident:
					if tgt := assignTarget(info, l); tgt != nil && tgt.Pkg() != nil &&
						tgt.Parent() == tgt.Pkg().Scope() {
						return "is stored in a package-level variable"
					}
					return "" // local alias: tracked by aliasSet
				default:
					_ = l
					return "is stored outside the call frame"
				}
			}
			return ""
		case *ast.RangeStmt:
			return "" // ranging over the batch's columns reads copies
		default:
			return "" // ExprStmt, IfStmt, ...: value consumed in place
		}
	}
	return ""
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// assignTarget resolves the object an identifier on an assignment LHS
// refers to (defined by := or reassigned by =).
func assignTarget(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// ---- rule 2: pooled batches must be recycled or visibly transferred --

// isBatchGetter reports whether the call mints a pooled batch.
func isBatchGetter(info *types.Info, call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "GetBatch", "NewBatch":
		return isMessageBatchPtr(info.TypeOf(call))
	}
	return false
}

func checkPoolDiscipline(pass *Pass) {
	info := pass.Pkg.TypesInfo
	inspectStack(pass.Pkg.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBatchGetter(info, call) {
			return true
		}
		fd := enclosingFunc(stack)
		if fd == nil || fd.Name.Name == "GetBatch" {
			return true // the pool implementation itself
		}
		parent := parentNode(stack)
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "pooled batch from %s is discarded: recycle it or use it", calleeName(call))
		case *ast.ReturnStmt:
			if !ownsAnnotated(pass.Pkg, fd) {
				pass.Reportf(call.Pos(),
					"%s transfers a pooled batch to its caller via return: document the ownership transfer with //ebv:owns <reason>", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if obj := assignedTo(info, p, call); obj != nil {
				checkTrackedBatch(pass, fd, obj, call)
			}
		}
		return true
	})
}

// parentNode returns the nearest non-paren ancestor.
func parentNode(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// assignedTo returns the variable the call's result is bound to in the
// assignment, or nil (non-ident target, blank, mismatched arity).
func assignedTo(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) types.Object {
	for j, rhs := range as.Rhs {
		if ast.Unparen(rhs) != ast.Expr(call) || j >= len(as.Lhs) {
			continue
		}
		if id, ok := ast.Unparen(as.Lhs[j]).(*ast.Ident); ok && id.Name != "_" {
			return assignTarget(info, id)
		}
	}
	return nil
}

// checkTrackedBatch scans the enclosing function for the fate of a
// pool-obtained batch variable.
func checkTrackedBatch(pass *Pass, fd *ast.FuncDecl, obj types.Object, origin *ast.CallExpr) {
	info := pass.Pkg.TypesInfo
	var recycled, transferredPlain, transferredOwning bool
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			name := calleeName(x)
			if name == "RecycleBatch" || name == "RecycleMessageBatch" {
				for _, arg := range x.Args {
					if isObj(arg) {
						recycled = true
					}
				}
			}
			if isBuiltinAppend(info, x) {
				for _, arg := range x.Args[1:] {
					if isObj(arg) {
						transferredOwning = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if isObj(r) {
					transferredOwning = true
				}
			}
		case *ast.SendStmt:
			if isObj(x.Value) {
				transferredPlain = true
			}
		case *ast.AssignStmt:
			for j, rhs := range x.Rhs {
				if !isObj(rhs) || j >= len(x.Lhs) {
					continue
				}
				if _, ok := ast.Unparen(x.Lhs[j]).(*ast.Ident); !ok {
					transferredPlain = true // out[dst] = b, s.field = b, ...
				}
			}
		}
		return true
	})
	switch {
	case recycled || transferredPlain:
	case transferredOwning:
		if !ownsAnnotated(pass.Pkg, fd) {
			pass.Reportf(origin.Pos(),
				"%s transfers the pooled batch %q to its caller (return/append): document the ownership transfer with //ebv:owns <reason>, or recycle it here",
				fd.Name.Name, obj.Name())
		}
	default:
		pass.Reportf(origin.Pos(),
			"pooled batch %q never reaches RecycleBatch and never visibly transfers ownership (store, send, return, append): leaked back pressure on the pool — recycle it on every path",
			obj.Name())
	}
}
