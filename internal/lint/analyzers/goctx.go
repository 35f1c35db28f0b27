package analyzers

import (
	"go/ast"
	"go/token"

	"strata/internal/lint/analysis"
)

// Goctx flags `go func(...)` literals that run an unbounded loop with no
// reachable stop signal. A goroutine whose body is `for { ... }` with no
// channel receive, no context use, and no conditional exit can never be
// stopped: it survives query shutdown and supervisor restarts, which is
// exactly the slow leak that multiplies once pipelines are sharded.
//
// A loop is considered stoppable when any of these appears inside it:
//
//   - a channel receive (<-ch, including select comm clauses) — covers done
//     channels and ticker/ctx.Done patterns
//   - a range over a channel — terminates when the producer closes it
//   - a use of a context.Context value — assumed to gate the loop
//   - a conditional exit: a return, or a break that targets this loop —
//     covers closed-over quit flags (`if stop.Load() { return }`) and
//     error exits
//
// Nested function literals are not searched: a signal consumed by a nested
// goroutine does not stop this one. The analysis is intra-procedural;
// goroutines that delegate their loop to a named function are not checked.
// False positives carry `//lint:ignore goctx <reason>` on the `go`
// statement.
var Goctx = &analysis.Analyzer{
	Name: "goctx",
	Doc:  "spawned goroutines need a reachable stop signal",
	Run:  runGoctx,
}

func runGoctx(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if inner, ok := m.(*ast.FuncLit); ok && inner != lit {
					return false
				}
				loop, ok := m.(*ast.ForStmt)
				if !ok || loop.Cond != nil {
					return true
				}
				if !loopStoppable(pass, loop) {
					pass.Reportf(g.Pos(),
						"goroutine loops forever with no reachable stop signal (no context, channel receive, or conditional exit); wire a cancellation path or annotate with //lint:ignore goctx <reason>")
					return false // one report per goroutine is enough
				}
				return true
			})
			return true
		})
	}
	return nil
}

// loopStoppable reports whether the unconditional loop has any of the
// accepted stop signals in its body.
func loopStoppable(pass *analysis.Pass, loop *ast.ForStmt) bool {
	stop := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if stop {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				stop = true
			}
		case *ast.RangeStmt:
			if isChan(pass.TypeOf(n.X)) {
				stop = true
			}
		case *ast.Ident:
			if obj := pass.ObjectOf(n); obj != nil && isContext(obj.Type()) {
				stop = true
			}
		case *ast.ReturnStmt:
			stop = true
		case *ast.BranchStmt:
			if n.Tok == token.GOTO {
				stop = true // conservatively assume the goto leaves the loop
			}
		}
		return !stop
	})
	if stop {
		return true
	}
	return hasLoopBreak(loop.Body, 0)
}

// hasLoopBreak reports whether body contains a break that exits the loop it
// belongs to, tracking nesting so that breaks belonging to inner loops,
// switches, and selects are not credited. Labeled breaks are conservatively
// treated as exits.
func hasLoopBreak(body *ast.BlockStmt, depth int) bool {
	found := false
	var walk func(s ast.Stmt, depth int)
	walkBlock := func(b *ast.BlockStmt, depth int) {
		if b == nil {
			return
		}
		for _, s := range b.List {
			walk(s, depth)
		}
	}
	walk = func(s ast.Stmt, depth int) {
		if found || s == nil {
			return
		}
		switch s := s.(type) {
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && (s.Label != nil || depth == 0) {
				found = true
			}
		case *ast.BlockStmt:
			walkBlock(s, depth)
		case *ast.IfStmt:
			walkBlock(s.Body, depth)
			walk(s.Else, depth)
		case *ast.ForStmt:
			walkBlock(s.Body, depth+1)
		case *ast.RangeStmt:
			walkBlock(s.Body, depth+1)
		case *ast.SwitchStmt:
			walkBlock(s.Body, depth+1)
		case *ast.TypeSwitchStmt:
			walkBlock(s.Body, depth+1)
		case *ast.SelectStmt:
			walkBlock(s.Body, depth+1)
		case *ast.CaseClause:
			for _, st := range s.Body {
				walk(st, depth)
			}
		case *ast.CommClause:
			for _, st := range s.Body {
				walk(st, depth)
			}
		case *ast.LabeledStmt:
			walk(s.Stmt, depth)
		}
	}
	walkBlock(body, depth)
	return found
}
