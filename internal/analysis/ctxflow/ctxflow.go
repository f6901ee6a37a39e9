// Package ctxflow defines the gaslint analyzer that keeps cancellation
// flowing through call chains.
//
// A function that receives a context.Context has accepted responsibility
// for honoring it. Minting a fresh context.Background()/context.TODO()
// inside such a function severs the caller's cancellation (the engine
// threads ctx through BSP barriers and worker pools precisely so a
// cancelled run unwinds everywhere), as does calling a callee's ctx-less
// variant when a ...Ctx sibling exists (par.ForEach vs par.ForEachCtx,
// bsp.Run vs bsp.RunCtx).
//
// One idiom is allowed: the nil-guard `if ctx == nil { ctx = context.
// Background() }` at a public API boundary, which only runs when no
// context was supplied. A deliberately detached call can be annotated
// //gas:detached <reason>. Test files are exempt.
package ctxflow

import (
	"go/ast"
	"go/types"

	"genomeatscale/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `functions receiving a context must propagate it

Inside a function with a context.Context parameter, calling
context.Background()/context.TODO() (outside the nil-guard idiom) or a
callee's ctx-less variant when a ...Ctx sibling exists is a finding.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Package) {
			continue
		}
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			ctxParams := visibleCtxParams(pass, stack)
			if len(ctxParams) == 0 {
				return true
			}
			checkCall(pass, call, stack, ctxParams)
			return true
		})
	}
	return nil
}

// visibleCtxParams collects the context.Context parameters of every
// function literal/declaration enclosing the current node. A closure that
// captures an outer ctx is held to the same rule as its parent.
func visibleCtxParams(pass *analysis.Pass, stack []ast.Node) map[types.Object]bool {
	var params map[types.Object]bool
	add := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj != nil && analysis.IsContextType(obj.Type()) {
					if params == nil {
						params = make(map[types.Object]bool)
					}
					params[obj] = true
				}
			}
		}
	}
	for _, anc := range stack {
		switch fn := anc.(type) {
		case *ast.FuncDecl:
			add(fn.Type)
		case *ast.FuncLit:
			add(fn.Type)
		}
	}
	return params
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, ctxParams map[types.Object]bool) {
	if analysis.PkgFunc(pass.TypesInfo, call, "context", "Background") ||
		analysis.PkgFunc(pass.TypesInfo, call, "context", "TODO") {
		if isNilGuard(pass, call, stack, ctxParams) {
			return
		}
		if _, ok := pass.Annotation(call.Pos(), "detached"); ok {
			return
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		pass.Reportf(call.Pos(), "context.%s() inside a function that receives a context: thread the caller's ctx (or annotate //gas:detached <reason>)", fn.Name())
		return
	}

	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || analysis.HasContextParam(sig) {
		return
	}
	name := fn.Name()
	if len(name) >= 3 && name[len(name)-3:] == "Ctx" {
		return
	}
	sibling := lookupSibling(fn, sig, name+"Ctx")
	if sibling == nil {
		return
	}
	if _, ok := pass.Annotation(call.Pos(), "detached"); ok {
		return
	}
	pass.Reportf(call.Pos(), "calling %s while holding a context: use the %s sibling so cancellation propagates (or annotate //gas:detached <reason>)", name, sibling.Name())
}

// lookupSibling finds a ctx-accepting variant of fn named siblingName:
// in the method set of fn's receiver for methods, in fn's package scope
// for package-level functions.
func lookupSibling(fn *types.Func, sig *types.Signature, siblingName string) *types.Func {
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), siblingName)
	} else {
		obj = fn.Pkg().Scope().Lookup(siblingName)
	}
	sibling, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	ssig, ok := sibling.Type().(*types.Signature)
	if !ok || !analysis.HasContextParam(ssig) {
		return nil
	}
	return sibling
}

// isNilGuard recognizes `if ctx == nil { ctx = context.Background() }`:
// the call must be the sole RHS of an assignment to a visible ctx
// parameter, directly inside an if whose condition is `ctx == nil`.
func isNilGuard(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, ctxParams map[types.Object]bool) bool {
	if len(stack) < 3 {
		return false
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || ast.Unparen(assign.Rhs[0]) != call {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[lhs]
	if obj == nil || !ctxParams[obj] {
		return false
	}
	// stack[-2] is the if body *ast.BlockStmt, stack[-3] the *ast.IfStmt.
	ifStmt, ok := stack[len(stack)-3].(*ast.IfStmt)
	if !ok {
		return false
	}
	cond, ok := ast.Unparen(ifStmt.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op.String() != "==" {
		return false
	}
	x, y := ast.Unparen(cond.X), ast.Unparen(cond.Y)
	return isIdentFor(pass, x, obj) && isNil(pass, y) ||
		isIdentFor(pass, y, obj) && isNil(pass, x)
}

func isIdentFor(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNilObj
}
