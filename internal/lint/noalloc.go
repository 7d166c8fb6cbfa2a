package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// noallocWalker finds the constructs that can heap-allocate in one
// function body and records them as that function's deferred "alloc"
// findings. It is the construct set behind the scratch-arena contract
// from DESIGN.md; parsafe decides, by reachability from its roots, which
// functions' findings are reported (see parsafe.go).
//
// Flagged constructs:
//   - make and new
//   - append whose result is neither assigned back to the same
//     expression as its first argument nor returned directly
//     (x = append(x, ...) and `return append(dst, ...)` are the
//     amortized grow-in-place patterns and stay allocation-free in
//     steady state; append into a fresh slice does not)
//   - slice, map and &-composite literals; function literals and method
//     values (both can create closures)
//   - interface boxing of non-pointer-shaped values (assignment, call
//     argument, return, conversion, or composite-literal field of
//     interface type)
//   - any call into package fmt; string concatenation; string<->[]byte
//     and string<->[]rune conversions
//   - calls passing a non-empty variadic argument list (the ... slice)
//   - go statements (every goroutine start allocates a stack)
//
// One-time warm-up allocations (lazy caches, capacity growth, rare
// debug/detail paths) are waived line by line with
// `//paraxlint:allow(alloc)`.
type noallocWalker struct {
	pass *Pass
	fn   *psFunc          // receives the findings
	sig  *types.Signature // enclosing function, for return-boxing checks

	calledSels map[*ast.SelectorExpr]bool // selector is the Fun of a call
	okAppends  map[*ast.CallExpr]bool     // append assigned back to arg 0
}

func (w *noallocWalker) walk(body *ast.BlockStmt) {
	w.calledSels = map[*ast.SelectorExpr]bool{}
	w.okAppends = map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.checkAssign(n)
		case *ast.ValueSpec:
			w.checkValueSpec(n)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				w.calledSels[sel] = true
			}
			w.checkCall(n)
		case *ast.SelectorExpr:
			w.checkMethodValue(n)
		case *ast.CompositeLit:
			w.checkCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.report(n.Pos(), "&-composite literal allocates")
				}
			}
		case *ast.FuncLit:
			// A literal that captures no enclosing variables compiles to
			// a static closure and never allocates.
			if w.captures(n) {
				w.report(n.Pos(), "function literal captures variables and allocates a closure")
			}
			return false // its body is not part of this function's hot path
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(w.typeOf(n)) {
				w.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.GoStmt:
			w.report(n.Pos(), "go statement allocates a goroutine stack")
		case *ast.ReturnStmt:
			// `return append(dst, ...)` hands the possibly-regrown slice
			// back to the caller, who reassigns it — the same amortized
			// pattern as x = append(x, ...).
			for _, r := range n.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && w.isBuiltin(call, "append") {
					w.okAppends[call] = true
				}
			}
			w.checkReturn(n)
		}
		return true
	})
}

func (w *noallocWalker) report(pos token.Pos, format string, args ...interface{}) {
	w.fn.allocf(pos, format, args...)
}

func (w *noallocWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// exprString renders an expression for textual destination matching
// (x = append(x, ...)).
func (w *noallocWalker) exprString(e ast.Expr) string {
	return exprText(w.pass, e)
}

// checkAssign blesses append-in-place destinations and flags interface
// boxing through plain `=` assignments.
func (w *noallocWalker) checkAssign(n *ast.AssignStmt) {
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.isBuiltin(call, "append") {
				if len(call.Args) > 0 && w.exprString(n.Lhs[i]) == w.exprString(call.Args[0]) {
					w.okAppends[call] = true
				}
			}
			if n.Tok == token.ASSIGN {
				lt := w.typeOf(n.Lhs[i])
				if lt != nil && types.IsInterface(lt) && w.boxes(rhs) {
					w.report(rhs.Pos(), "assignment boxes %s into interface %s", w.typeOf(rhs), lt)
				}
			}
		}
	}
}

// checkValueSpec flags `var x I = concrete` boxing.
func (w *noallocWalker) checkValueSpec(n *ast.ValueSpec) {
	if n.Type == nil {
		return
	}
	dt := w.typeOf(n.Type)
	if dt == nil || !types.IsInterface(dt) {
		return
	}
	for _, v := range n.Values {
		if w.boxes(v) {
			w.report(v.Pos(), "declaration boxes %s into interface %s", w.typeOf(v), dt)
		}
	}
}

func (w *noallocWalker) checkReturn(n *ast.ReturnStmt) {
	if w.sig == nil || w.sig.Results() == nil || len(n.Results) != w.sig.Results().Len() {
		return
	}
	for i, r := range n.Results {
		if types.IsInterface(w.sig.Results().At(i).Type()) && w.boxes(r) {
			w.report(r.Pos(), "return boxes %s into interface %s",
				w.typeOf(r), w.sig.Results().At(i).Type())
		}
	}
}

func (w *noallocWalker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = w.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func (w *noallocWalker) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isb := w.pass.TypesInfo.Uses[id].(*types.Builtin); isb {
			switch id.Name {
			case "make":
				w.report(call.Pos(), "call to make allocates")
			case "new":
				w.report(call.Pos(), "call to new allocates")
			case "append":
				if !w.okAppends[call] {
					w.report(call.Pos(), "append may allocate a new backing array (assign the result back to its first argument, or waive)")
				}
			}
			return
		}
	}

	tv, ok := w.pass.TypesInfo.Types[fun]
	if !ok {
		return
	}

	// Conversions: T(x).
	if tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst, src := tv.Type, w.typeOf(call.Args[0])
		if src == nil {
			return
		}
		switch {
		case isString(dst) && isByteOrRuneSlice(src):
			w.report(call.Pos(), "conversion %s -> string allocates", src)
		case isByteOrRuneSlice(dst) && isString(src):
			w.report(call.Pos(), "conversion string -> %s allocates", dst)
		case types.IsInterface(dst) && w.boxes(call.Args[0]):
			w.report(call.Pos(), "conversion boxes %s into interface %s", src, dst)
		}
		return
	}

	// Calls into package fmt always allocate (formatting state, boxing).
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj := w.pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "fmt" {
			w.report(call.Pos(), "call to fmt.%s allocates", sel.Sel.Name)
			return
		}
	}

	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}

	// Non-empty variadic argument lists allocate the ... slice unless a
	// prepared slice is spread with `arg...`.
	if sig.Variadic() && call.Ellipsis == token.NoPos &&
		len(call.Args) >= sig.Params().Len() {
		w.report(call.Pos(), "variadic call allocates its argument slice")
	}

	// Interface boxing at argument positions.
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // spread: slice passed through, no per-element boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && w.boxes(arg) {
			w.report(arg.Pos(), "argument boxes %s into interface %s", w.typeOf(arg), pt)
		}
	}
}

// captures reports whether a function literal references any variable
// declared outside itself but inside some enclosing function (captured
// free variables force a heap-allocated closure; package-level variables
// are addressed statically and do not).
func (w *noallocWalker) captures(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == w.pass.Pkg.Scope() {
			return true // package-level or predeclared
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			found = true
		}
		return true
	})
	return found
}

// checkMethodValue flags `x.M` used as a value: binding the receiver
// allocates a closure.
func (w *noallocWalker) checkMethodValue(sel *ast.SelectorExpr) {
	if w.calledSels[sel] {
		return
	}
	if s, ok := w.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		w.report(sel.Pos(), "method value %s allocates a bound-method closure", sel.Sel.Name)
	}
}

func (w *noallocWalker) checkCompositeLit(lit *ast.CompositeLit) {
	t := w.typeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		w.report(lit.Pos(), "slice literal allocates")
		return
	case *types.Map:
		w.report(lit.Pos(), "map literal allocates")
		return
	}
	// Struct literal values are fine, but interface-typed fields box.
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var ft types.Type
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				for j := 0; j < st.NumFields(); j++ {
					if st.Field(j).Name() == id.Name {
						ft = st.Field(j).Type()
						break
					}
				}
			}
		} else if i < st.NumFields() {
			ft = st.Field(i).Type()
		}
		if ft != nil && types.IsInterface(ft) && w.boxes(val) {
			w.report(val.Pos(), "composite literal boxes %s into interface field", w.typeOf(val))
		}
	}
}

// boxes reports whether storing the expression into an interface
// allocates: its type is concrete and not pointer-shaped.
func (w *noallocWalker) boxes(e ast.Expr) bool {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if types.IsInterface(t) {
		return false // interface-to-interface carries the existing word
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the interface data word
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
