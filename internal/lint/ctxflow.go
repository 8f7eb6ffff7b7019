package lint

import (
	"go/ast"
	"go/types"

	"crumbcruncher/internal/lint/analysis"
)

// CtxFlow guards cancellation propagation between the layers. The
// codebase's convention is a context-aware core (`FooCtx`/`FooContext`)
// with thin `context.Background()` wrappers for entry points that have
// no context. Dropping cancellation happens when code that *does* have
// a context forgets it: it calls a context-accepting callee with a
// fresh `context.Background()`/`context.TODO()`, or calls the
// convenience wrapper instead of the context-aware variant. The first
// case is visible locally; the second needs a cross-package fact — the
// wrapper's own package exports "this function discards the caller's
// context (it delegates with context.Background())", and ctxflow flags
// calls to it from any context-aware function anywhere in the module.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "report dropped cancellation: context-aware functions that call " +
		"context-accepting callees with context.Background()/TODO() or call " +
		"Background-wrapper convenience entry points instead of the " +
		"context-aware variant",
	UsesFacts: true,
	Run:       runCtxFlow,
}

// ctxWrapFact marks a function without a context parameter that
// delegates to a context-accepting callee with context.Background() or
// context.TODO(): the convenience-wrapper shape. Callee names what it
// wraps, for the diagnostic.
type ctxWrapFact struct {
	Callee string
}

func (ctxWrapFact) AFact() {}

func runCtxFlow(pass *analysis.Pass) error {
	// Phase 1: export wrapper facts for this package.
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || ctxParamIndex(fn) >= 0 {
				continue // context-aware functions are not wrappers
			}
			if callee := backgroundDelegate(pass, fd.Body); callee != "" {
				analysis.ExportFact(pass, fn, ctxWrapFact{Callee: callee})
			}
		}
	}

	// Phase 2: report drops inside context-aware functions.
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ctxIdx := ctxParamIndex(fn)
			if ctxIdx < 0 {
				continue
			}
			ctxName := paramName(fd, ctxIdx)
			checkCtxAwareBody(pass, fd.Body, ctxName)
		}
	}
	return nil
}

// checkCtxAwareBody walks a context-aware function's body (including
// nested literals, which see the context lexically) and reports drops.
func checkCtxAwareBody(pass *analysis.Pass, body *ast.BlockStmt, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		// Rule 1: context.Background()/TODO() handed to a callee that
		// accepts a context, while our own context sits unused.
		for i, arg := range call.Args {
			if !isBackgroundCall(pass, arg) {
				continue
			}
			if sigParamIsContext(fn, i) && !isContextConstructor(fn) {
				pass.Reportf(arg.Pos(),
					"context.Background() passed to %s inside a context-aware function; "+
						"propagate %s instead", fn.Name(), ctxName)
			}
		}
		// Rule 2 (fact-driven): calling a Background-wrapper entry
		// point drops cancellation one level down.
		if ctxParamIndex(fn) < 0 {
			if wrap, ok := analysis.ImportFact[ctxWrapFact](pass, fn); ok {
				pass.Reportf(call.Pos(),
					"%s drops %s: it delegates to %s with context.Background(); "+
						"call the context-aware variant directly", fn.Name(), ctxName, wrap.Callee)
			}
		}
		return true
	})
}

// backgroundDelegate reports the name of a context-accepting callee
// this body invokes with context.Background()/TODO() at the context
// position, or "" when the body is not a wrapper. Wrappers that do real
// work besides delegating still qualify: any Background handoff in a
// function that could not have propagated a context marks it.
func backgroundDelegate(pass *analysis.Pass, body *ast.BlockStmt) string {
	callee := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if callee != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil || isContextConstructor(fn) {
			return true
		}
		for i, arg := range call.Args {
			if isBackgroundCall(pass, arg) && sigParamIsContext(fn, i) {
				callee = fn.Name()
				return false
			}
		}
		return true
	})
	return callee
}

// isBackgroundCall matches context.Background() and context.TODO().
func isBackgroundCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := unwrapExpr(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := staticCallee(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// isContextConstructor matches the context package's own derivation
// functions (WithCancel, WithTimeout...): building a fresh context from
// Background inside a context-aware function is occasionally deliberate
// (detached lifetimes), and rule 1 would otherwise make the idiom
// unspeakable. The report then lands on whatever the derived context is
// passed to, if that too ignores the caller's context.
func isContextConstructor(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// ctxParamIndex returns the index of fn's context.Context parameter, or
// -1.
func ctxParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// sigParamIsContext reports whether fn's i-th parameter (variadic-
// aware) is a context.Context.
func sigParamIsContext(fn *types.Func, i int) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Variadic() && i >= sig.Params().Len()-1 {
		i = sig.Params().Len() - 1
	}
	if i < 0 || i >= sig.Params().Len() {
		return false
	}
	t := sig.Params().At(i).Type()
	if sig.Variadic() && i == sig.Params().Len()-1 {
		if sl, ok := t.(*types.Slice); ok {
			t = sl.Elem()
		}
	}
	return isContextType(t)
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// paramName returns the declared name of the idx-th parameter ("ctx"
// in practice), or a placeholder for unnamed parameters.
func paramName(fd *ast.FuncDecl, idx int) string {
	i := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for k := 0; k < n; k++ {
			if i == idx {
				if k < len(field.Names) {
					return field.Names[k].Name
				}
				return "the context parameter"
			}
			i++
		}
	}
	return "the context parameter"
}
