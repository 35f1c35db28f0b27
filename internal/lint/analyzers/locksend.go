package analyzers

import (
	"go/ast"
	"go/token"
	"strings"

	"strata/internal/lint/analysis"
)

// Locksend flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held. Holding a lock across a channel send/receive, a
// WaitGroup.Wait, a sleep, or blocking connection I/O couples lock hold
// time to the progress of other goroutines — the classic SPE deadlock shape
// where a blocked subscriber wedges every publisher contending for the
// same lock.
//
// The check is an intra-procedural, source-order approximation: Lock/RLock
// adds the mutex to the held set, Unlock/RUnlock removes it (a deferred
// Unlock keeps it held to function end), and any blocking operation while
// the set is non-empty is reported. Function literals are analyzed as
// independent scopes because their bodies do not run under the
// lexically-enclosing lock. Deliberate violations (there is one: the
// Block-policy delivery in pubsub) carry a //lint:ignore locksend comment
// and a DESIGN.md justification.
var Locksend = &analysis.Analyzer{
	Name: "locksend",
	Doc:  "no channel operations or blocking waits while a mutex is held",
	Run:  runLocksend,
}

// Fully-qualified method names that acquire and release mutexes, and the
// blocking calls the contract forbids under them. sync.Cond.Wait is
// intentionally absent from the blocking set: it requires the lock.
var (
	lockMethods = map[string]bool{
		"(*sync.Mutex).Lock":    true,
		"(*sync.RWMutex).Lock":  true,
		"(*sync.RWMutex).RLock": true,
	}
	unlockMethods = map[string]bool{
		"(*sync.Mutex).Unlock":    true,
		"(*sync.RWMutex).Unlock":  true,
		"(*sync.RWMutex).RUnlock": true,
	}
	blockingCalls = map[string]string{
		"(*sync.WaitGroup).Wait": "sync.WaitGroup.Wait",
		"time.Sleep":             "time.Sleep",
		"(net.Conn).Read":        "blocking read on net.Conn",
		"(net.Conn).Write":       "blocking write on net.Conn",
	}
)

func runLocksend(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				scanLockScope(pass, fn.Body)
			}
		}
	}
	return nil
}

// lockSet tracks held mutexes in acquisition order, keyed by the rendered
// receiver expression ("db.mu", "s.sendMu").
type lockSet struct{ keys []string }

func (ls *lockSet) add(k string) {
	for _, have := range ls.keys {
		if have == k {
			return
		}
	}
	ls.keys = append(ls.keys, k)
}

func (ls *lockSet) remove(k string) {
	for i, have := range ls.keys {
		if have == k {
			ls.keys = append(ls.keys[:i], ls.keys[i+1:]...)
			return
		}
	}
}

func (ls *lockSet) empty() bool { return len(ls.keys) == 0 }

func (ls *lockSet) String() string { return strings.Join(ls.keys, ", ") }

// scanLockScope walks one function body in source order, maintaining the
// held-lock set. Nested function literals start fresh scopes.
func scanLockScope(pass *analysis.Pass, body *ast.BlockStmt) {
	held := &lockSet{}
	deferred := make(map[*ast.CallExpr]bool)
	// Receives that serve as select comm clauses are reported through the
	// select itself, not once per case.
	inSelect := make(map[ast.Node]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			scanLockScope(pass, n.Body)
			return false

		case *ast.DeferStmt:
			deferred[n.Call] = true

		case *ast.CallExpr:
			name := calleeFullName(pass.TypesInfo, n)
			switch {
			case lockMethods[name]:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					held.add(exprText(sel.X))
				}
			case unlockMethods[name]:
				// A deferred unlock releases at return, so the lock stays
				// held for the rest of the function.
				if !deferred[n] {
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						held.remove(exprText(sel.X))
					}
				}
			default:
				if what, ok := blockingCalls[name]; ok && !held.empty() {
					pass.Reportf(n.Pos(), "%s while %s is held", what, held)
				}
			}

		case *ast.SendStmt:
			if !held.empty() && !inSelect[n] {
				pass.Reportf(n.Pos(), "channel send on %s while %s is held", exprText(n.Chan), held)
			}

		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !held.empty() && !inSelect[n] {
				pass.Reportf(n.Pos(), "channel receive from %s while %s is held", exprText(n.X), held)
			}

		case *ast.SelectStmt:
			blocking := true
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil {
					blocking = false // default clause: select cannot park
				} else {
					markCommOps(cc.Comm, inSelect)
				}
			}
			if blocking && !held.empty() {
				pass.Reportf(n.Pos(), "blocking select (no default) while %s is held", held)
			}

		case *ast.RangeStmt:
			if !held.empty() && isChan(pass.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "range over channel %s while %s is held", exprText(n.X), held)
			}
		}
		return true
	})
}

// markCommOps records the channel operations that form a select comm clause
// so they are not double-reported as standalone sends/receives.
func markCommOps(comm ast.Stmt, mark map[ast.Node]bool) {
	switch s := comm.(type) {
	case *ast.SendStmt:
		mark[s] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			mark[u] = true
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				mark[u] = true
			}
		}
	}
}
