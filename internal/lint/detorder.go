package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetOrder mechanizes the determinism guarantee the byte-identity suites
// assert dynamically (PRs 2-6): results, wire frames, checkpoints and
// harness outputs are byte-identical across transports, parallelism and
// resumes. Go map iteration order is randomized per run, so a `range`
// over a map whose body feeds an ordered sink — a MessageBatch append, a
// wire or writer write, an encoder, CSV/golden output — silently breaks
// that guarantee ~once per scheduler seed instead of failing in CI.
//
// The sorted idiom (collect keys, sort, then iterate the slice) never
// places the sink lexically inside the map range, so the analyzer flags
// exactly the unsorted shape: an ordered-sink call inside the body of a
// range over a map (or over maps.Keys/maps.Values/maps.All).
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "no map-order iteration into MessageBatch appends, wire writes, encoders, or CSV/golden output — sort first",
	Run:  runDetOrder,
}

func runDetOrder(pass *Pass) error {
	info := pass.Pkg.TypesInfo
	inspectStack(pass.Pkg.Files, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !rangesOverMap(info, rng) {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sink := orderedSink(info, call); sink != "" {
				pass.Reportf(call.Pos(),
					"%s inside a range over a map: iteration order is randomized per run, breaking the byte-identity guarantee — collect and sort keys first (DESIGN.md §11)", sink)
			}
			return true
		})
		return true
	})
	return nil
}

// rangesOverMap reports whether the range statement iterates a map or a
// map-backed iterator (maps.Keys/Values/All).
func rangesOverMap(info *types.Info, rng *ast.RangeStmt) bool {
	if t := info.TypeOf(rng.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return true
		}
	}
	if call, ok := ast.Unparen(rng.X).(*ast.CallExpr); ok {
		return isPkgFunc(info, call, "maps", "Keys", "Values", "All")
	}
	return false
}

// orderedSink classifies a call as an order-sensitive output, returning a
// description or "".
func orderedSink(info *types.Info, call *ast.CallExpr) string {
	name := calleeName(call)
	if name == "" {
		return ""
	}
	// fmt.Fprint* to a writer.
	if isPkgFunc(info, call, "fmt", "Fprint", "Fprintf", "Fprintln") {
		return "fmt." + name + " (writer output)"
	}
	// Package-level Write*/Encode* helpers of this module (graph.WriteEdgeList,
	// bsp.WriteSubgraph, checkpoint writers, ...).
	if f := funcOf(info, call); f != nil && f.Pkg() != nil {
		path := f.Pkg().Path()
		sig, _ := f.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil
		if !isMethod && (strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode")) &&
			(strings.HasPrefix(path, "ebv/") || strings.Contains(path, "/testdata/src/detorder")) {
			return path + "." + name + " (ordered wire/file output)"
		}
	}
	rt := recvType(info, call)
	if rt == nil {
		return ""
	}
	// MessageBatch appends: message order is part of the byte-identity
	// contract (programs fold their inbox rows left-to-right in arrival
	// order).
	if namedIn(rt, transportPath, "MessageBatch") && strings.HasPrefix(name, "Append") {
		return "MessageBatch." + name + " (message order is part of the wire contract)"
	}
	// Writer methods and stream encoders.
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteRow":
		if isOrderedWriter(rt) {
			return typeLabel(rt) + "." + name + " (ordered writer output)"
		}
	case "Encode":
		if namedIn(rt, "encoding/gob", "Encoder") || namedIn(rt, "encoding/json", "Encoder") {
			return typeLabel(rt) + ".Encode (stream encoder output)"
		}
	}
	return ""
}

// isOrderedWriter reports whether the receiver is a byte/record stream
// whose write order is observable: bufio/csv writers, strings/bytes
// builders and buffers, anything implementing io.Writer.
func isOrderedWriter(t types.Type) bool {
	if namedIn(t, "bufio", "Writer") || namedIn(t, "encoding/csv", "Writer") ||
		namedIn(t, "strings", "Builder") || namedIn(t, "bytes", "Buffer") {
		return true
	}
	// Any io.Writer implementation (covers os.File, net.Conn, harness
	// writers) — detected structurally to avoid importing io's package
	// object here.
	if mset := types.NewMethodSet(t); mset != nil {
		for i := 0; i < mset.Len(); i++ {
			f, ok := mset.At(i).Obj().(*types.Func)
			if !ok || f.Name() != "Write" {
				continue
			}
			sig, ok := f.Type().(*types.Signature)
			if ok && sig.Params().Len() == 1 && sig.Results().Len() == 2 {
				if sl, ok := sig.Params().At(0).Type().(*types.Slice); ok {
					if b, ok := sl.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
						return true
					}
				}
			}
		}
	}
	return false
}

func typeLabel(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok {
		if n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}
