package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"

	"strata/internal/lint/analysis"
)

// Boundedchan flags data channels created without an explicit non-zero
// capacity. An unbuffered `make(chan T)` is a rendezvous point: the sender
// blocks until a receiver arrives, the edge holds no queue, and so neither
// the shed gates nor the queue-depth metrics (strata_stream_queue_len /
// strata_overload_pressure) can see or relieve pressure on it. Every
// data-plane edge in STRATA must carry a sized buffer so overload shows up
// as measurable occupancy instead of a silently stalled goroutine.
//
// Pure signal channels (element type struct{}) are exempt: they carry no
// data, and unbuffered close/notify semantics are exactly what they are for.
// Test files are exempt. A deliberate unbuffered data channel (for example a
// handshake that must rendezvous) can be annotated:
//
//	//lint:ignore boundedchan rendezvous handshake, never carries load
var Boundedchan = &analysis.Analyzer{
	Name: "boundedchan",
	Doc:  "data channels need an explicit non-zero capacity; unbuffered edges are invisible to backpressure accounting",
	Run:  runBoundedchan,
}

func runBoundedchan(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltinMake(pass.TypesInfo, call) || len(call.Args) == 0 {
				return true
			}
			ch, ok := pass.TypeOf(call.Args[0]).Underlying().(*types.Chan)
			if !ok {
				return true
			}
			if isEmptyStruct(ch.Elem()) {
				return true // signal channel: rendezvous is the point
			}
			switch {
			case len(call.Args) == 1:
				pass.Reportf(call.Pos(),
					"unbuffered data channel make(chan %s): give the edge an explicit capacity so backpressure is measurable, or annotate //lint:ignore boundedchan <why>",
					ch.Elem())
			case isConstZero(pass.TypesInfo, call.Args[1]):
				pass.Reportf(call.Pos(),
					"zero-capacity data channel make(chan %s, 0): give the edge a non-zero capacity so backpressure is measurable, or annotate //lint:ignore boundedchan <why>",
					ch.Elem())
			}
			return true
		})
	}
	return nil
}

// isBuiltinMake reports whether call invokes the builtin make.
func isBuiltinMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	_, isBuiltin := info.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// isEmptyStruct reports whether t's core type is struct{}.
func isEmptyStruct(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isConstZero reports whether e evaluates to the integer constant 0.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && v == 0
}
