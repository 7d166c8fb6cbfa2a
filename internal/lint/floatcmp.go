package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// FloatCmp flags exact equality between floating-point expressions:
// `==` and `!=` where either operand has float type. Exact comparison
// against literal zero is permitted — testing "was this ever touched"
// (warm-start impulses, joint loads, zero-length vectors guarding a
// divide) is exact by construction. Tolerance helpers (an epsilon-based
// comparison is the one place exact float compares belong) are exempted
// wholesale by annotating the function `//paraxlint:tolerance`;
// individual sites are waived with //paraxlint:allow(floatcmp).
var FloatCmp = &Analyzer{
	Name:       "floatcmp",
	Doc:        "flags ==/!= between floating-point expressions (except against literal zero)",
	Categories: []string{"floatcmp"},
	Run:        eachPass(runFloatCmp),
}

func runFloatCmp(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasDirective(fd.Doc, "tolerance") {
				continue
			}
			checkFloatCmps(pass, fd.Body)
		}
	}
}

func checkFloatCmps(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if !isFloat(pass.TypesInfo.Types[be.X].Type) && !isFloat(pass.TypesInfo.Types[be.Y].Type) {
			return true
		}
		if isZeroConst(pass, be.X) || isZeroConst(pass, be.Y) {
			return true
		}
		pass.Reportf(be.OpPos, "floatcmp",
			"exact %s between floating-point values; use a tolerance helper or compare against literal zero", be.Op)
		return true
	})
}

// isZeroConst reports whether the expression is a compile-time constant
// equal to zero.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
