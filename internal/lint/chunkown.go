package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChunkOwn checks the disjoint-write discipline of chunk workers
// syntactically. A chunk worker is any function whose parameter list
// contains the consecutive trio `chunk, lo, hi int` — the signature
// World.runItem calls for the chunked phases (see DESIGN.md "Phase
// parallelism").
// Workers run concurrently over disjoint [lo,hi) element ranges, so
// every index-write to a slice they can see must be provably owned:
//
//   - the index is `chunk` itself (a per-chunk merge buffer slot:
//     w.scratch.perChunk[chunk] = ...);
//   - the index is the induction variable of a `for i := lo; i < hi;
//     i++` loop in the same function (the worker's own range);
//   - the destination chain already passed through a [chunk] index
//     (fields of a per-chunk struct element);
//   - the destination is a local derived from a [chunk]-indexed
//     expression (e := &w.scratch.per[chunk]; e.xs[j] = ...), or a
//     local array (value semantics, no sharing).
//
// Anything else — x[i+1], x[f(i)], writes through a plain local slice
// header — cannot be proved disjoint from here and is a finding,
// waivable per line with //paraxlint:allow(chunkown) for deliberate
// merge-time exceptions.
var ChunkOwn = &Analyzer{
	Name:       "chunkown",
	Doc:        "chunk workers may index-write shared slices only within [lo,hi) or through their own [chunk] buffer",
	Categories: []string{"chunkown"},
	Run:        runChunkOwn,
}

func runChunkOwn(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			chunk, lo, hi := chunkParams(pass, fd)
			if chunk == nil {
				continue
			}
			w := &chunkOwnWalker{
				pass:    pass,
				chunk:   chunk,
				lo:      lo,
				hi:      hi,
				bounded: map[*types.Var]bool{},
				derived: map[*types.Var]bool{},
			}
			w.collect(fd.Body)
			w.check(fd.Body)
		}
	}
	return nil
}

// chunkParams returns the objects of a consecutive `chunk, lo, hi int`
// parameter trio, or nils if the function is not a chunk worker.
func chunkParams(pass *Pass, fd *ast.FuncDecl) (chunk, lo, hi *types.Var) {
	var names []*ast.Ident
	for _, field := range fd.Type.Params.List {
		names = append(names, field.Names...)
	}
	for i := 0; i+2 < len(names); i++ {
		if names[i].Name != "chunk" || names[i+1].Name != "lo" || names[i+2].Name != "hi" {
			continue
		}
		c, _ := pass.TypesInfo.Defs[names[i]].(*types.Var)
		l, _ := pass.TypesInfo.Defs[names[i+1]].(*types.Var)
		h, _ := pass.TypesInfo.Defs[names[i+2]].(*types.Var)
		if c == nil || l == nil || h == nil {
			return nil, nil, nil
		}
		if !isInt(c.Type()) || !isInt(l.Type()) || !isInt(h.Type()) {
			return nil, nil, nil
		}
		return c, l, h
	}
	return nil, nil, nil
}

type chunkOwnWalker struct {
	pass    *Pass
	chunk   *types.Var
	lo, hi  *types.Var
	bounded map[*types.Var]bool // induction vars of for i := lo; i < hi; i++
	derived map[*types.Var]bool // locals assigned from a [chunk]-indexed chain
}

// collect gathers the bounded induction variables and chunk-derived
// locals in one pre-pass, since Go allows use before the checker walks
// the declaring statement's subtree.
func (w *chunkOwnWalker) collect(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if v := w.boundedInduction(n); v != nil {
				w.bounded[v] = true
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := w.pass.TypesInfo.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if w.chainHasChunkIndex(n.Rhs[i]) {
					w.derived[v] = true
				}
			}
		}
		return true
	})
}

// boundedInduction recognizes exactly `for i := lo; i < hi; i++` (and
// i <= hi-1 is deliberately NOT recognized: one canonical shape keeps
// the proof obvious) and returns i's object.
func (w *chunkOwnWalker) boundedInduction(n *ast.ForStmt) *types.Var {
	init, ok := n.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok || !w.isVar(init.Rhs[0], w.lo) {
		return nil
	}
	obj, ok := w.pass.TypesInfo.Defs[iv].(*types.Var)
	if !ok {
		return nil
	}
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return nil
	}
	if !w.isVar(cond.X, obj) || !w.isVar(cond.Y, w.hi) {
		return nil
	}
	post, ok := n.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC || !w.isVar(post.X, obj) {
		return nil
	}
	return obj
}

func (w *chunkOwnWalker) isVar(e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && w.pass.TypesInfo.Uses[id] == v
}

// check flags unproven index-writes.
func (w *chunkOwnWalker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				w.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			w.checkWrite(n.X)
		case *ast.FuncLit:
			return false // not dispatched with this function's (chunk, lo, hi)
		}
		return true
	})
}

// checkWrite proves one write destination chunk-owned or reports it.
func (w *chunkOwnWalker) checkWrite(lhs ast.Expr) {
	idx := w.outermostIndex(lhs)
	if idx == nil {
		return // no slice indexing on the path: plain var/field write
	}
	if w.ownedIndex(idx.Index) {
		return
	}
	if w.chainHasChunkIndex(idx.X) {
		return // element of a per-chunk structure
	}
	if w.localArrayBase(idx.X) {
		return // function-local array: value semantics
	}
	if root := chainRoot(idx.X); root != nil {
		if v, ok := w.pass.TypesInfo.Uses[root].(*types.Var); ok && w.derived[v] {
			return // local derived from a [chunk] chain
		}
	}
	w.pass.Reportf(lhs.Pos(), "chunkown",
		"index write %s is not provably chunk-owned: index within [lo,hi), a [chunk] buffer, or a chunk-derived local required", exprText(w.pass, lhs))
}

// outermostIndex returns the outermost IndexExpr on the write path
// (peeling selectors and parens), or nil.
func (w *chunkOwnWalker) outermostIndex(e ast.Expr) *ast.IndexExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			// Index into a map or array? Only slice/array/map elements
			// share memory; maps are caught by parsafe anyway. Treat all
			// uniformly.
			return x
		default:
			return nil
		}
	}
}

// ownedIndex reports whether an index expression is provably inside
// this worker's range: the chunk parameter itself or a bounded
// induction variable.
func (w *chunkOwnWalker) ownedIndex(idx ast.Expr) bool {
	id, ok := ast.Unparen(idx).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return v == w.chunk || w.bounded[v]
}

// chainHasChunkIndex reports whether the expression chain contains an
// index by the chunk parameter ([chunk]) anywhere.
func (w *chunkOwnWalker) chainHasChunkIndex(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ix, ok := n.(*ast.IndexExpr); ok {
			if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok {
				if w.pass.TypesInfo.Uses[id] == w.chunk {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// localArrayBase reports whether the indexed operand is an array (not a
// slice) rooted in a local variable — per-call storage that cannot
// alias another worker's.
func (w *chunkOwnWalker) localArrayBase(base ast.Expr) bool {
	t := typeOfExpr(w.pass.TypesInfo, base)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Array); !ok {
		return false
	}
	root := chainRoot(base)
	if root == nil {
		return false
	}
	v, ok := w.pass.TypesInfo.Uses[root].(*types.Var)
	if !ok {
		return false
	}
	// Param or body-local, but not a pointer (a *T param aliases the
	// caller's array).
	if _, ptr := v.Type().Underlying().(*types.Pointer); ptr {
		return false
	}
	return v.Parent() != v.Pkg().Scope()
}

// chainRoot peels selectors, indexes, derefs and parens down to the
// root identifier.
func chainRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}
