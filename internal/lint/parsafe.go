package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ParSafe proves the two hot-path contracts from DESIGN.md on every
// build, transitively over one static call graph of the whole module.
// The graph is walked from two kinds of root:
//
//   - A `//paraxlint:noalloc` function is a serial root (World.Step):
//     everything reachable from it must not allocate. The construct set
//     is noallocWalker's; no directive is needed on callees, so a newly
//     added allocating function three frames below Step is a finding.
//   - A `//paraxlint:parroot` function is a worker entry point
//     (pool.loop): everything reachable from it runs concurrently with
//     every other worker and must satisfy the allocation rule plus the
//     concurrency rules below.
//
// Code reachable from a parroot must not:
//
//   - write package-level variables (workers share them);
//   - touch channels, select, or package sync outside sync/atomic
//     (the pool's own WaitGroup handoff is waived, not allowlisted);
//   - start goroutines;
//   - call through interface methods that class-hierarchy analysis
//     cannot resolve to analyzed bodies, or through func values;
//   - call outside the analyzed set, except pure-compute packages on
//     a short allowlist (math, math/bits, slices, sync/atomic).
//
// Allocation findings carry the waiver category "alloc" whichever kind
// of root reached them; the concurrency findings carry "parsafe".
//
// The graph is cut at `//paraxlint:coldpath` functions: event and
// warm-up paths (detonations, pool construction, lane registration)
// that run rarely and allocate by design. Directive hygiene is itself
// checked: a coldpath directive no reachable caller mentions is a
// finding, and so is a root directive on a function another root
// already reaches — so the directive set stays minimal.
var ParSafe = &Analyzer{
	Name:       "parsafe",
	Doc:        "code reachable from //paraxlint:noalloc roots must be allocation-free; from //paraxlint:parroot workers also shared-state-free and statically resolvable",
	Categories: []string{"alloc", "parsafe"},
	Run:        runParSafe,
}

// parsafeExternal lists out-of-module packages whose functions are pure
// compute or lock-free primitives, callable from parallel hot paths
// without analysis. Anything else outside the module is a finding.
var parsafeExternal = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"slices":      true,
	"sync/atomic": true,
}

func runParSafe(passes []*Pass) error {
	g := buildParsafe(passes)
	g.propagate()
	g.report()
	return nil
}

// ParsafeReachable loads nothing itself: it runs parsafe's graph
// construction and reachability pass over already-loaded packages and
// returns the sorted, fully-qualified names of every function proved
// reachable from a root of either kind. Tests pin the presence of deep
// callees (solver, narrow phase, joint rows) so a refactor that
// silently disconnects the graph — leaving nothing checked — fails.
func ParsafeReachable(pkgs []*Package) []string {
	g := buildParsafe(newPasses(ParSafe, pkgs))
	g.propagate()
	var names []string
	for _, f := range g.funcs {
		if (f.par || f.ser) && f.obj != nil {
			names = append(names, f.obj.FullName())
		}
	}
	sort.Strings(names)
	return names
}

// psViol is one deferred violation: recorded while summarizing a
// function, reported only if the function turns out to be reachable.
type psViol struct {
	pos      token.Pos
	category string // "alloc" or "parsafe"
	msg      string
}

// psFunc is one function body in the analyzed set.
type psFunc struct {
	pass *Pass
	decl *ast.FuncDecl
	obj  *types.Func

	parroot  bool // worker entry point: full rule set
	noalloc  bool // serial root: allocation rule only
	coldpath bool

	callees []*psFunc
	viols   []psViol

	par, ser bool // reachable from a parroot / from a noalloc root
	coldUsed bool // a reachable caller targets this coldpath function
	// parVia and allocVia are the first reachable caller (other than the
	// function itself) found calling this root while walking from the
	// parroots, or from roots of either kind: its directive is redundant.
	parVia, allocVia *psFunc
}

// violf records a concurrency-rule violation, allocf an allocation.
func (f *psFunc) violf(pos token.Pos, format string, args ...interface{}) {
	f.viols = append(f.viols, psViol{pos: pos, category: "parsafe", msg: fmt.Sprintf(format, args...)})
}

func (f *psFunc) allocf(pos token.Pos, format string, args ...interface{}) {
	f.viols = append(f.viols, psViol{pos: pos, category: "alloc", msg: fmt.Sprintf(format, args...)})
}

// parsafeGraph is the module-wide call graph.
type parsafeGraph struct {
	funcs []*psFunc // deterministic (package, file, decl) order
	index map[*types.Func]*psFunc
	// concrete holds every non-interface named type in the analyzed
	// packages, as both T and *T, for class-hierarchy devirtualization
	// of interface calls.
	concrete []types.Type
}

func buildParsafe(passes []*Pass) *parsafeGraph {
	g := &parsafeGraph{index: make(map[*types.Func]*psFunc)}
	for _, pass := range passes {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				f := &psFunc{
					pass:     pass,
					decl:     fd,
					obj:      obj,
					parroot:  hasDirective(fd.Doc, "parroot"),
					coldpath: hasDirective(fd.Doc, "coldpath"),
					noalloc:  hasDirective(fd.Doc, "noalloc"),
				}
				g.funcs = append(g.funcs, f)
				if obj != nil {
					g.index[obj] = f
				}
			}
		}
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			g.concrete = append(g.concrete, t, types.NewPointer(t))
		}
	}
	for _, f := range g.funcs {
		g.summarize(f)
	}
	return g
}

// summarize records one function's call edges and deferred violations.
func (g *parsafeGraph) summarize(f *psFunc) {
	info := f.pass.TypesInfo

	w := &noallocWalker{pass: f.pass, fn: f}
	if f.obj != nil {
		w.sig, _ = f.obj.Type().(*types.Signature)
	}
	w.walk(f.decl.Body)

	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			f.violf(n.Pos(), "channel send in parroot-reachable code")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				f.violf(n.Pos(), "channel receive in parroot-reachable code")
			}
		case *ast.SelectStmt:
			f.violf(n.Pos(), "select statement in parroot-reachable code")
		case *ast.RangeStmt:
			if t := typeOfExpr(info, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					f.violf(n.Pos(), "range over channel in parroot-reachable code")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				g.checkPkgVarWrite(f, lhs)
			}
		case *ast.IncDecStmt:
			g.checkPkgVarWrite(f, n.X)
		case *ast.CallExpr:
			g.checkCall(f, n)
		}
		return true
	})
}

// checkPkgVarWrite flags assignments whose destination chain is rooted
// in (or passes through) a package-level variable: workers share those,
// so any write is a race. Writes through locally held pointers are out
// of reach of this syntactic check; chunkown and the race detector
// cover that residue — see DESIGN.md.
func (g *parsafeGraph) checkPkgVarWrite(f *psFunc, lhs ast.Expr) {
	info := f.pass.TypesInfo
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if g.isPkgVar(info, e.Sel) {
				f.violf(lhs.Pos(), "write to package-level variable %s in parroot-reachable code", e.Sel.Name)
				return
			}
			lhs = e.X
		case *ast.Ident:
			if g.isPkgVar(info, e) {
				f.violf(lhs.Pos(), "write to package-level variable %s in parroot-reachable code", e.Name)
			}
			return
		default:
			return // *p, f(x).field, ... — not resolvable syntactically
		}
	}
}

func (g *parsafeGraph) isPkgVar(info *types.Info, id *ast.Ident) bool {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkCall classifies one call site: static edge into the analyzed
// set, devirtualized interface call, allowlisted external, or
// violation.
func (g *parsafeGraph) checkCall(f *psFunc, call *ast.CallExpr) {
	info := f.pass.TypesInfo
	fun := ast.Unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		switch o := info.Uses[fn].(type) {
		case *types.Func:
			g.addCallee(f, call, o)
		case *types.Var:
			f.violf(call.Pos(), "call through func value %s: concrete target unknown to parsafe", fn.Name)
		}
		// Builtins, conversions: safe or covered by the alloc walker.
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				m, _ := sel.Obj().(*types.Func)
				if m == nil {
					return
				}
				if types.IsInterface(sel.Recv()) {
					g.addInterfaceCallees(f, call, sel.Recv(), m)
				} else {
					g.addCallee(f, call, m)
				}
			case types.MethodExpr:
				if m, ok := sel.Obj().(*types.Func); ok {
					g.addCallee(f, call, m)
				}
			case types.FieldVal:
				f.violf(call.Pos(), "call through func-typed field %s: concrete target unknown to parsafe", fn.Sel.Name)
			}
			return
		}
		switch o := info.Uses[fn.Sel].(type) {
		case *types.Func:
			g.addCallee(f, call, o)
		case *types.Var:
			f.violf(call.Pos(), "call through func value %s: concrete target unknown to parsafe", fn.Sel.Name)
		}
	case *ast.FuncLit:
		// Immediately invoked; its body is walked as part of this
		// function.
	default:
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return // conversion
		}
		f.violf(call.Pos(), "call through computed func value: concrete target unknown to parsafe")
	}
}

// addCallee records a static edge, or a violation if the target's body
// is outside the analyzed set and not allowlisted.
func (g *parsafeGraph) addCallee(f *psFunc, call *ast.CallExpr, m *types.Func) {
	m = m.Origin()
	if t, ok := g.index[m]; ok {
		f.callees = append(f.callees, t)
		return
	}
	pkg := m.Pkg()
	if pkg == nil {
		return // universe-scope (error.Error on a concrete type never lands here)
	}
	path := pkg.Path()
	if parsafeExternal[path] {
		return
	}
	if path == "sync" {
		f.violf(call.Pos(), "sync.%s in parroot-reachable code (only the pool's own WaitGroup handoff may be waived)", m.Name())
		return
	}
	f.violf(call.Pos(), "call to %s.%s: body outside the parsafe-analyzed set", path, m.Name())
}

// addInterfaceCallees devirtualizes an interface method call over every
// concrete type in the analyzed packages (class-hierarchy analysis).
// Each implementation becomes a call edge; an implementation without an
// analyzed body, or an interface with no implementation at all, is a
// violation — the contract requires resolvable targets.
func (g *parsafeGraph) addInterfaceCallees(f *psFunc, call *ast.CallExpr, recv types.Type, m *types.Func) {
	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil {
		f.violf(call.Pos(), "interface call %s: receiver type unresolved", m.Name())
		return
	}
	seen := map[*types.Func]bool{}
	found := false
	for _, t := range g.concrete {
		if !types.Implements(t, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		mf, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		mf = mf.Origin()
		if sig, ok := mf.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// t embeds the interface and promotes its abstract method
			// (Breakable embedding Joint, say). The dynamic target is
			// whatever implementation fills the embedded field — and every
			// concrete implementor is its own candidate in this loop, so
			// the edge set is already covered without this abstract stop.
			continue
		}
		if seen[mf] {
			continue
		}
		seen[mf] = true
		found = true
		if tf, ok := g.index[mf]; ok {
			f.callees = append(f.callees, tf)
		} else {
			f.violf(call.Pos(), "interface call %s devirtualizes to %s: body outside the analyzed set", m.Name(), mf.FullName())
		}
	}
	if !found {
		f.violf(call.Pos(), "interface call %s has no implementation in the analyzed set", m.Name())
	}
}

// propagate marks what each kind of root reaches, cutting the graph at
// coldpath functions (and remembering which coldpath directives were
// actually load-bearing).
func (g *parsafeGraph) propagate() {
	g.reach(true)
	g.reach(false)
}

// reach runs BFS from the parroots (par) or the noalloc roots (!par).
func (g *parsafeGraph) reach(par bool) {
	isRoot := func(f *psFunc) bool { return par && f.parroot || !par && f.noalloc }
	mark := func(f *psFunc) *bool {
		if par {
			return &f.par
		}
		return &f.ser
	}
	var queue []*psFunc
	for _, f := range g.funcs {
		if isRoot(f) {
			*mark(f) = true
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, t := range f.callees {
			if t.coldpath {
				t.coldUsed = true
				continue
			}
			if t != f {
				if par && t.parroot && t.parVia == nil {
					t.parVia = f
				}
				if t.noalloc && t.allocVia == nil {
					t.allocVia = f
				}
			}
			if !*mark(t) {
				*mark(t) = true
				queue = append(queue, t)
			}
		}
	}
}

// report emits the deferred violations of reachable functions — all of
// them under a parroot, the allocation findings alone under a serial
// root — plus the directive-hygiene findings, through each owning
// package's pass (so allow waivers and unused-waiver detection apply).
func (g *parsafeGraph) report() {
	for _, f := range g.funcs {
		name := f.decl.Name.Name
		at := f.decl.Name.Pos()
		if (f.parroot || f.noalloc) && f.coldpath {
			f.pass.Reportf(at, "parsafe", "%s is annotated both as a root and coldpath; pick one", name)
		}
		switch {
		case f.par || f.ser:
			for _, v := range f.viols {
				if f.par || v.category == "alloc" {
					f.pass.Reportf(v.pos, v.category, "%s", v.msg)
				}
			}
		case f.coldpath && !f.coldUsed:
			f.pass.Reportf(at, "parsafe", "stale //paraxlint:coldpath on %s: no root-reachable caller", name)
		}
		switch {
		case f.noalloc && f.parroot:
			f.pass.Reportf(at, "parsafe", "redundant //paraxlint:noalloc on %s: a parroot is checked for allocation already", name)
		case f.noalloc && f.allocVia != nil:
			f.pass.Reportf(at, "parsafe", "redundant //paraxlint:noalloc on %s: already reached from another root through %s", name, f.allocVia.decl.Name.Name)
		}
		if f.parroot && f.parVia != nil {
			f.pass.Reportf(at, "parsafe", "redundant //paraxlint:parroot on %s: already reached from another parroot through %s", name, f.parVia.decl.Name.Name)
		}
	}
}

func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
