package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"strata/internal/lint/analysis"
)

// Errdrop flags statements that call a Close/Flush/Sync method (any case)
// returning an error and silently discard the result. On the kvstore WAL
// and SSTable paths a dropped Close error is dropped durability: the last
// buffered writes may never have reached the disk and nobody finds out.
//
// Scope is deliberately narrower than errcheck:
//
//   - only expression statements are flagged — `defer f.Close()` on a
//     read-side handle is accepted teardown idiom, and `_ = f.Close()` is
//     an explicit, reviewable decision to discard
//   - only methods named Close/close/Flush/flush/Sync/sync whose results
//     include an error
//   - _test.go files are exempt
var Errdrop = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "Close/Flush/Sync errors must be handled or explicitly discarded",
	Run:  runErrdrop,
}

func runErrdrop(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isDropTarget(fn.Name()) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !returnsError(sig) {
				return true
			}
			target := fn.Name()
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				target = exprText(sel.X) + "." + fn.Name()
			}
			pass.Reportf(stmt.Pos(),
				"error from %s is discarded; handle it or assign to _ explicitly", target)
			return true
		})
	}
	return nil
}

func isDropTarget(name string) bool {
	switch strings.ToLower(name) {
	case "close", "flush", "sync":
		return true
	}
	return false
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}
