// Package analyzers holds the STRATA contract checks run by strata-lint.
//
// Each analyzer encodes one invariant the engine's concurrency model relies
// on; see DESIGN.md ("Static contracts") for the rationale behind each and
// for how to suppress a deliberate violation with //lint:ignore.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"strata/internal/lint/analysis"
)

// All is the full strata-lint suite, in the order findings are attributed.
// A //lint:ignore directive may name only these analyzers.
var All = []*analysis.Analyzer{
	Streamclose, Locksend, Goctx, Errdrop, Boundedchan,
	Snapshotgap, Metricname,
}

// calleeFunc resolves the called function/method object of call, or nil for
// builtins, type conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// calleeFullName returns the resolved callee's FullName (for example
// "(*sync.Mutex).Lock" or "time.Sleep"), or "".
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// exprText renders a selector/ident chain ("rc.mu", "s.conn.done") for
// diagnostics and for keying mutexes. Unrenderable shapes degrade to "?".
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	default:
		return "?"
	}
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// isChan reports whether t's core type is a channel (following named types).
func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isBuiltinClose reports whether call invokes the builtin close.
func isBuiltinClose(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	_, isBuiltin := info.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
