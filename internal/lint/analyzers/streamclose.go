package analyzers

import (
	"go/ast"
	"go/types"

	"strata/internal/lint/analysis"
)

// Streamclose enforces the operator-shutdown contract: every operator run
// loop must close its output channel(s) on every return path, because
// downstream operators treat channel close as end-of-stream. A run method
// that can return without closing its outputs stalls the rest of the DAG
// forever (the downstream select never wakes).
//
// Contract shape: a method named "run" whose receiver struct declares
// channel-typed fields named "out..." (chan T, or []chan T for multi-output
// operators) must close each of them in a defer — either
//
//	defer close(m.out)
//
// or, for slice-of-channel outputs, a deferred closure that ranges over the
// field and closes every element:
//
//	defer func() { for _, ch := range s.outs { close(ch) } }()
//
// A deferred call to closeGated — the stream package's quiesce-aware close
// wrapper, which unconditionally closes its channel argument after waiting
// out any checkpoint pause — satisfies the contract the same way:
//
//	defer closeGated(m.g, m.out)
//
// Only a defer survives every return path (including panics unwound by
// recoverPanic), which is why in-line closes on the happy path do not
// satisfy the check.
var Streamclose = &analysis.Analyzer{
	Name: "streamclose",
	Doc:  "operator run loops must defer-close their output channels",
	Run:  runStreamclose,
}

func runStreamclose(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "run" || fn.Recv == nil || fn.Body == nil {
				continue
			}
			checkRunMethod(pass, fn)
		}
	}
	return nil
}

// outField is one output-channel field the receiver must close.
type outField struct {
	name    string
	isSlice bool
}

func checkRunMethod(pass *analysis.Pass, fn *ast.FuncDecl) {
	recvField := fn.Recv.List[0]
	st := receiverStruct(pass, recvField)
	if st == nil {
		return
	}
	var required []outField
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if len(f.Name()) < 3 || f.Name()[:3] != "out" {
			continue
		}
		switch u := f.Type().Underlying().(type) {
		case *types.Chan:
			if u.Dir() != types.RecvOnly {
				required = append(required, outField{name: f.Name()})
			}
		case *types.Slice:
			if ch, ok := u.Elem().Underlying().(*types.Chan); ok && ch.Dir() != types.RecvOnly {
				required = append(required, outField{name: f.Name(), isSlice: true})
			}
		}
	}
	if len(required) == 0 {
		return
	}

	var recvObj types.Object
	if len(recvField.Names) > 0 {
		recvObj = pass.ObjectOf(recvField.Names[0])
	}
	closed := make(map[string]bool)
	if recvObj != nil {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			d, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			collectDeferredCloses(pass, d, recvObj, closed)
			return true
		})
	}
	for _, f := range required {
		if closed[f.name] {
			continue
		}
		recvName := "receiver"
		if recvObj != nil {
			recvName = recvObj.Name()
		}
		if f.isSlice {
			pass.Reportf(fn.Name.Pos(),
				"operator run loop never closes its output channels %s.%s; defer a loop that closes each element",
				recvName, f.name)
		} else {
			pass.Reportf(fn.Name.Pos(),
				"operator run loop never closes its output channel %s.%s on all return paths; add `defer close(%s.%s)`",
				recvName, f.name, recvName, f.name)
		}
	}
}

// receiverStruct resolves the receiver's underlying struct type (through
// pointers and generic instantiation).
func receiverStruct(pass *analysis.Pass, recv *ast.Field) *types.Struct {
	t := pass.TypeOf(recv.Type)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// collectDeferredCloses records which receiver out-fields the deferred call
// d closes, either directly (defer close(m.out)) or through a closure that
// ranges over a slice field closing each element.
func collectDeferredCloses(pass *analysis.Pass, d *ast.DeferStmt, recvObj types.Object, closed map[string]bool) {
	if isBuiltinClose(pass.TypesInfo, d.Call) && len(d.Call.Args) == 1 {
		if name, ok := receiverField(pass, d.Call.Args[0], recvObj); ok {
			closed[name] = true
		}
		return
	}
	// closeGated(g, ch): the quiesce-aware close wrapper. It always closes
	// its channel argument, so any receiver out-field passed to it counts.
	if fnIdent(d.Call.Fun) == "closeGated" {
		for _, a := range d.Call.Args {
			if name, ok := receiverField(pass, a, recvObj); ok {
				closed[name] = true
			}
		}
		return
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	// Map range-value variables to the receiver slice field they iterate,
	// then credit close(v) calls on those variables.
	rangeVars := make(map[types.Object]string)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		field, ok := receiverField(pass, rs.X, recvObj)
		if !ok {
			return true
		}
		if v, ok := rs.Value.(*ast.Ident); ok {
			if obj := pass.ObjectOf(v); obj != nil {
				rangeVars[obj] = field
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltinClose(pass.TypesInfo, call) || len(call.Args) != 1 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if name, ok := receiverField(pass, arg, recvObj); ok {
			closed[name] = true
			return true
		}
		if id, ok := arg.(*ast.Ident); ok {
			if field, ok := rangeVars[pass.ObjectOf(id)]; ok {
				closed[field] = true
			}
		}
		return true
	})
}

// fnIdent returns the called function's bare name, unwrapping parens and an
// explicit generic instantiation (closeGated[T](...)).
func fnIdent(e ast.Expr) string {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// receiverField matches e against `recv.field` and returns the field name.
func receiverField(pass *analysis.Pass, e ast.Expr, recvObj types.Object) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || pass.ObjectOf(id) != recvObj {
		return "", false
	}
	return sel.Sel.Name, true
}
