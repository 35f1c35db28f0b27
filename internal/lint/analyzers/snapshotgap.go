package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"strata/internal/lint/analysis"
)

// Snapshotgap enforces the crash-recovery contract from DESIGN.md §10: a
// type implementing the Snapshotter pair
//
//	Snapshot() ([]byte, error)
//	Restore([]byte) error
//
// must reference every mutable field of its receiver from that pair. A
// field the operator mutates at runtime but omits from its gob blob is the
// exact bug class that corrupts recovery — the query restarts, restores,
// and silently continues from partial state.
//
// "Mutable" is judged conservatively from the type's own method bodies
// (helpers that take the struct as an ordinary parameter are not
// followed):
//
//   - a field assigned, incremented, deleted-from, or address-taken
//     through the receiver (writes that reach the field's own memory:
//     writes behind a pointer-typed field mutate shared state, which the
//     engine deliberately does not snapshot — telemetry handles, guards)
//   - a value-typed struct field that receives a pointer-receiver method
//     call, when the field's type is imported (any such call counts — the
//     analysis is per package and cannot see the callee's body) or is
//     declared in the same package and has mutable fields of its own
//   - a value-typed sync/atomic field passed a mutating call
//     (Store/Add/Swap/CompareAndSwap/And/Or)
//
// Channel- and func-typed fields are wiring, not state, and are exempt. A
// field that is mutable by this definition but deliberately excluded from
// the blob (rebuilt on restore, for example) takes
// //lint:ignore snapshotgap <why it is safe> on the Snapshot declaration.
var Snapshotgap = &analysis.Analyzer{
	Name: "snapshotgap",
	Doc:  "Snapshot/Restore pairs must reference every mutable field of their receiver",
	Run:  runSnapshotgap,
}

// atomicMutators are the sync/atomic methods that change their receiver.
var atomicMutators = map[string]bool{
	"Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "And": true, "Or": true,
}

// fieldCall is a deferred judgement: a pointer-receiver method call on a
// value-typed struct field, whose mutating-ness may depend on the field
// type's own mutability.
type fieldCall struct {
	field  string
	ft     *types.Named
	method string
}

// snapType is the per-type working state of one run.
type snapType struct {
	tn      *types.TypeName
	st      *types.Struct
	mutable map[string]bool
	covered map[string]bool
	calls   []fieldCall
	// snapPos anchors diagnostics: the Snapshot declaration if the pair is
	// defined in this package, else the type name (promoted pair).
	snapPos token.Pos
	hasPair bool
}

func runSnapshotgap(pass *analysis.Pass) error {
	byName := make(map[*types.TypeName]*snapType)
	scope := pass.Pkg.Scope()
	var order []*snapType
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		t := &snapType{
			tn: tn, st: st,
			mutable: make(map[string]bool),
			covered: make(map[string]bool),
			snapPos: tn.Pos(),
			hasPair: hasSnapshotterPair(tn.Type()),
		}
		byName[tn] = t
		order = append(order, t)
	}

	// Walk every method body, crediting writes (outside Snapshot/Restore)
	// and snapshot references (inside them) to the receiver's type.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List) == 0 {
				continue
			}
			recvType := pass.TypeOf(fn.Recv.List[0].Type)
			named := namedOf(recvType)
			if named == nil {
				continue
			}
			t := byName[named.Obj()]
			if t == nil {
				continue
			}
			var recvObj types.Object
			if names := fn.Recv.List[0].Names; len(names) > 0 {
				recvObj = pass.ObjectOf(names[0])
			}
			if recvObj == nil {
				continue
			}
			switch fn.Name.Name {
			case "Snapshot", "Restore":
				if fn.Name.Name == "Snapshot" {
					t.snapPos = fn.Name.Pos()
				}
				collectFieldRefs(pass, fn.Body, recvObj, t)
			default:
				collectFieldWrites(pass, fn.Body, recvObj, t)
			}
		}
	}

	// Resolve the deferred pointer-method-call judgements to a fixpoint:
	// a local field type's mutability can itself depend on such calls.
	for changed := true; changed; {
		changed = false
		for _, t := range order {
			for _, c := range t.calls {
				if t.mutable[c.field] {
					continue
				}
				if typeHasMutableState(pass, byName, c.ft, c.method) {
					t.mutable[c.field] = true
					changed = true
				}
			}
		}
	}

	// Report gaps for snapshotter types.
	for _, t := range order {
		if !t.hasPair {
			continue
		}
		var missing []string
		for f := range t.mutable {
			if !t.covered[f] {
				missing = append(missing, f)
			}
		}
		sort.Strings(missing)
		for _, f := range missing {
			pass.Reportf(t.snapPos,
				"Snapshot/Restore of %s never reference mutable field %s; its state is silently lost on crash recovery (the gob blob omits it)",
				t.tn.Name(), f)
		}
	}
	return nil
}

// collectFieldWrites records which receiver fields fn's body mutates.
func collectFieldWrites(pass *analysis.Pass, body *ast.BlockStmt, recvObj types.Object, t *snapType) {
	mark := func(e ast.Expr) {
		if f, ok := recvFieldTarget(pass, e, recvObj, t.st); ok && isStateField(t.st, f) {
			t.mutable[f] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					mark(n.Args[0])
				}
			}
			// recv.f.M(...): a pointer-receiver method call on a value-typed
			// struct field. Defer the judgement until every local type's
			// write set is known.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(fsel.X).(*ast.Ident); ok && pass.ObjectOf(id) == recvObj {
						ft := pass.TypeOf(fsel)
						named := fieldValueStruct(ft)
						if named != nil && ptrReceiverMethod(pass, sel.Sel) && isStateField(t.st, fsel.Sel.Name) {
							t.calls = append(t.calls, fieldCall{field: fsel.Sel.Name, ft: named, method: sel.Sel.Name})
						}
					}
				}
			}
		}
		return true
	})
}

// collectFieldRefs records every receiver field fn's body mentions at all —
// the Snapshot/Restore coverage set.
func collectFieldRefs(pass *analysis.Pass, body *ast.BlockStmt, recvObj types.Object, t *snapType) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.ObjectOf(id) == recvObj {
			t.covered[directFieldName(pass, sel)] = true
		}
		return true
	})
}

// recvFieldTarget resolves a write target rooted at the receiver to the
// receiver's own field whose memory the write reaches. Writes that cross a
// pointer-typed field boundary (recv.ptr.x = v) mutate shared state, not
// the receiver's, and resolve to nothing. Map and slice elements count:
// their contents are logically owned by the field.
func recvFieldTarget(pass *analysis.Pass, e ast.Expr, recvObj types.Object, st *types.Struct) (string, bool) {
	e = ast.Unparen(e)
	var sels []*ast.SelectorExpr
	depth := 0
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			sels = append(sels, x)
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			goto done
		}
		depth++
	}
done:
	id, ok := e.(*ast.Ident)
	if !ok || pass.ObjectOf(id) != recvObj || len(sels) == 0 {
		return "", false
	}
	root := sels[len(sels)-1] // the recv.f selector
	name := directFieldName(pass, root)
	if depth == 1 {
		return name, true // direct write/address of the field itself
	}
	if ft := pass.TypeOf(root); ft != nil {
		if _, isPtr := ft.Underlying().(*types.Pointer); isPtr {
			return "", false
		}
	}
	return name, true
}

// directFieldName maps a recv.x selection to the receiver struct's own
// field: for a field promoted from an embedded struct it returns the
// embedded field's name, so writes and coverage are matched against the
// fields the struct actually declares.
func directFieldName(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	if s, ok := pass.TypesInfo.Selections[sel]; ok && len(s.Index()) > 0 {
		if named := namedOf(s.Recv()); named != nil {
			if st, ok := named.Underlying().(*types.Struct); ok {
				return st.Field(s.Index()[0]).Name()
			}
		}
	}
	return sel.Sel.Name
}

// typeHasMutableState reports whether a pointer-receiver call to method on
// a value of named type ft mutates it: sync/atomic mutators by name, local
// types by their computed write set, and any imported type — its method
// bodies are out of a per-package analysis's sight, so the call is assumed
// to write.
func typeHasMutableState(pass *analysis.Pass, byName map[*types.TypeName]*snapType, ft *types.Named, method string) bool {
	obj := ft.Obj()
	switch {
	case obj.Pkg() == nil:
		return false
	case obj.Pkg().Path() == "sync/atomic":
		return atomicMutators[method]
	case obj.Pkg() == pass.Pkg:
		t := byName[obj]
		return t != nil && len(t.mutable) > 0
	}
	return true
}

// isStateField reports whether the named field exists on st and is state
// rather than wiring (channels and funcs are exempt).
func isStateField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != name {
			continue
		}
		switch f.Type().Underlying().(type) {
		case *types.Chan, *types.Signature:
			return false
		}
		return true
	}
	return false
}

// fieldValueStruct returns t as a named struct held by value, or nil for
// pointers (whose pointees are shared state, not receiver memory) and
// non-struct types.
func fieldValueStruct(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return nil
	}
	named := namedOf(t)
	if named == nil {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// ptrReceiverMethod reports whether sel resolves to a method with a
// pointer receiver.
func ptrReceiverMethod(pass *analysis.Pass, sel *ast.Ident) bool {
	fn, ok := pass.ObjectOf(sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr
}

// hasSnapshotterPair reports whether *T's method set carries the exact
// Snapshotter shape: Snapshot() ([]byte, error) and Restore([]byte) error.
// The check is structural — the interface may be declared in any package.
func hasSnapshotterPair(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	var snapOK, restoreOK bool
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch fn.Name() {
		case "Snapshot":
			snapOK = sig.Params().Len() == 0 && sig.Results().Len() == 2 &&
				isByteSlice(sig.Results().At(0).Type()) && isErrorType(sig.Results().At(1).Type())
		case "Restore":
			restoreOK = sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
				isByteSlice(sig.Params().At(0).Type()) && isErrorType(sig.Results().At(0).Type())
		}
	}
	return snapOK && restoreOK
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// namedOf unwraps pointers to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
