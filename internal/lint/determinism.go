package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the PR 2 contract that a parallel run is
// byte-identical to a serial run: engine, model and harness code must
// not let Go's deliberately randomized map iteration order, global
// math/rand state, or wall-clock reads leak into results.
//
// Flagged constructs (in every package except `package main`, whose
// binaries own their I/O):
//   - `range` over a map whose body prints or writes output directly
//     (order-dependent by construction), appends to a slice declared
//     outside the loop with no subsequent sort of that slice in the
//     same function, or accumulates into an outer floating-point
//     variable (float addition is not associative, so iteration order
//     changes the sum)
//   - package-level math/rand state: rand.Intn, rand.Shuffle, ... —
//     anything but the explicitly seeded rand.New(rand.NewSource(seed))
//     constructors
//   - time.Now outside the waived harness timing lines
//
// Waive with //paraxlint:allow(maprange), (rand) or (time).
var Determinism = &Analyzer{
	Name:       "determinism",
	Doc:        "flags map-iteration order, global math/rand and time.Now leaking into engine results",
	Categories: []string{"maprange", "rand", "time"},
	Run:        runDeterminism,
}

// globalRandOK lists math/rand (and /v2) functions that do not touch the
// package-level generator: explicit-seed constructors.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call's target to its types.Func, if any.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		// Methods on a seeded *rand.Rand are fine; only package-level
		// state is nondeterministic across runs.
		if fn.Type().(*types.Signature).Recv() == nil && !globalRandOK[fn.Name()] {
			pass.Reportf(call.Pos(), "rand",
				"global %s.%s is seeded per process; use a per-workload rand.New(rand.NewSource(seed))",
				fn.Pkg().Name(), fn.Name())
		}
	case "time":
		if fn.Name() == "Now" && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(), "time",
				"time.Now leaks wall-clock into results; waive harness timing lines with //paraxlint:allow(time)")
		}
	}
}

// checkMapRanges inspects every map-range loop in one function.
func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fd, rng)
		return true
	})
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	var appendDests []ast.Expr
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isOutputCall(pass, n) {
				pass.Reportf(n.Pos(), "maprange",
					"output written inside map iteration is emitted in random order; collect and sort first")
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if ok && isBuiltinNamed(pass, call, "append") && i < len(n.Lhs) {
					if declaredOutside(pass, n.Lhs[i], rng) {
						appendDests = append(appendDests, n.Lhs[i])
					}
				}
			}
			// Floating-point accumulation: order changes the rounding.
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN {
				for _, lhs := range n.Lhs {
					if isFloat(pass.TypesInfo.Types[lhs].Type) && declaredOutside(pass, lhs, rng) {
						pass.Reportf(n.Pos(), "maprange",
							"floating-point accumulation across map iteration is order-dependent; iterate a sorted key slice")
					}
				}
			}
		}
		return true
	})
	for _, dest := range appendDests {
		if !sortedAfter(pass, fd, rng, dest) {
			pass.Reportf(dest.Pos(), "maprange",
				"slice appended across map iteration has random element order; sort it before use or iterate sorted keys")
		}
	}
}

// isOutputCall reports whether the call prints or writes: the fmt
// print family (except Sprint*, whose result can still be sorted) or a
// Write/WriteString/WriteByte/WriteRune method.
func isOutputCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && !strings.HasPrefix(fn.Name(), "Sprint") {
		return true
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print", "Println":
			return true
		}
	}
	return false
}

func isBuiltinNamed(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// declaredOutside reports whether the expression's root object was
// declared before the range statement (so writes survive the loop).
func declaredOutside(pass *Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos()
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, after the range loop, the enclosing
// function calls a sort.* or slices.* function, or a sort of its own
// package (a function or method whose name starts with "sort", such as
// broadphase's counting pair sort), mentioning the same destination
// expression.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, dest ast.Expr) bool {
	destStr := exprText(pass, dest)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		p := fn.Pkg().Path()
		ownSort := fn.Pkg() == pass.Pkg && strings.HasPrefix(strings.ToLower(fn.Name()), "sort")
		if p != "sort" && p != "slices" && !ownSort {
			return true
		}
		for _, arg := range call.Args {
			if strings.Contains(exprText(pass, arg), destStr) {
				found = true
			}
		}
		return true
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
