package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"crumbcruncher/internal/lint/analysis"
)

// PoolReset enforces the pooled-object discipline PR 6 introduced on
// the hot paths: every sync.Pool Get must reach a matching Put on all
// paths (directly, via a deferred closure, via a Release method, or —
// interprocedurally — via a callee whose disposition fact proves it
// returns the value to its pool), and pooled values parked in fields
// are nilled after Put so the pool's copy is not still reachable.
// (Whether a pooled map goes back cleared is left to the determinism
// suite: a stale entry changes candidates, and the pins fail.)
var PoolReset = &analysis.Analyzer{
	Name: "poolreset",
	Doc: "report sync.Pool values that are not returned to their pool on " +
		"every path, and pooled fields not nilled after Put",
	UsesFacts: true,
	Run:       runPoolReset,
}

func runPoolReset(pass *analysis.Pass) error {
	runAcqRel(pass, engineConfig{
		classes:   []*resourceClass{poolClass},
		skipTests: true,
	})
	checkPoolHygiene(pass)
	return nil
}

// poolClass models pooled values generically: acquired from any
// sync.Pool's Get (or an Acquire-style helper returning a type with a
// Release method), released by Put on any sync.Pool or by Release.
var poolClass = &resourceClass{
	noun: "pooled value",
	sourceResults: func(pass *analysis.Pass, call *ast.CallExpr) []int {
		if isPoolMethodCall(pass, call, "Get") {
			return []int{0}
		}
		// Acquire helpers: package-level calls returning a releasable.
		if isPkgLevelCall(pass, call) {
			return typeResults(pass, call, hasReleaseMethod)
		}
		return nil
	},
	releaseMethods: map[string]bool{"Release": true},
	borrow:         true,
	releaseArg: func(pass *analysis.Pass, call *ast.CallExpr, argIdx int) bool {
		return argIdx == 0 && isPoolMethodCall(pass, call, "Put")
	},
	// Any pointer-to-named or map parameter may carry a disposition:
	// the pool element types are application-defined, so the net is
	// wide and empty dispositions are simply not exported.
	factParam: func(t types.Type) bool {
		switch u := t.(type) {
		case *types.Pointer:
			_, ok := u.Elem().(*types.Named)
			return ok
		case *types.Map:
			return true
		}
		return false
	},
	msgDiscard: "pooled value discarded; it will never return to its pool",
	msgLeakReturn: func(name string, acq string) string {
		return fmt.Sprintf("pooled value %s from the Get at %s is not returned "+
			"to the pool on this return path", name, acq)
	},
	msgLeakEnd: func(name string) string {
		return fmt.Sprintf("pooled value %s is never returned to the pool; "+
			"add a deferred Put or a Release call on every path", name)
	},
	msgReassign: func(name string, acq string) string {
		return fmt.Sprintf("pooled value %s reassigned before Put; the value "+
			"from the Get at %s never returns to the pool", name, acq)
	},
	msgOverwrite: func(name string, acq string) string {
		return fmt.Sprintf("pooled value %s overwritten before Put; the value "+
			"from the Get at %s never returns to the pool", name, acq)
	},
}

// isPoolMethodCall matches `p.Get()` / `p.Put(x)` where p is a
// sync.Pool (or *sync.Pool).
func isPoolMethodCall(pass *analysis.Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// hasReleaseMethod reports whether t (or *t) has a Release method —
// the shape of pool-backed acquire helpers like stats.AcquireRNG.
func hasReleaseMethod(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), "Release")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0
}

// checkPoolHygiene enforces the reset contract around each Put call: a
// pooled value read out of a field and handed to Put must have the
// field nilled afterwards, or the released value is still reachable
// and a later use races with the pool's next owner.
func checkPoolHygiene(pass *analysis.Pass) {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, body := range functionBodies(file) {
			checkPutSites(pass, body)
		}
	}
}

func checkPutSites(pass *analysis.Pass, body *ast.BlockStmt) {
	// Gather, in source order: nil-assignment positions per field
	// selector text, and the Put calls.
	var puts []*ast.CallExpr
	nilled := map[string][]token.Pos{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPoolMethodCall(pass, n, "Put") && len(n.Args) == 1 {
				puts = append(puts, n)
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				sel, ok := l.(*ast.SelectorExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if id, ok := unwrapExpr(n.Rhs[i]).(*ast.Ident); ok && id.Name == "nil" {
					nilled[selectorText(sel)] = append(nilled[selectorText(sel)], n.Pos())
				}
			}
		}
		return true
	})

	for _, put := range puts {
		if sel, ok := unwrapExpr(put.Args[0]).(*ast.SelectorExpr); ok {
			key := selectorText(sel)
			ok := false
			for _, np := range nilled[key] {
				if np > put.Pos() {
					ok = true
				}
			}
			if !ok {
				pass.Reportf(put.Pos(),
					"pooled field %s is not set to nil after Put; the released value "+
						"is still reachable and a later use races with the pool's next owner",
					selectorText(sel))
			}
		}
	}
}

// rootObject resolves an expression to the object of its root
// identifier (m, x.f -> x, s[i] -> s), or nil.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := unwrapExpr(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// selectorText renders x.f (and deeper chains) as a comparison key.
func selectorText(sel *ast.SelectorExpr) string {
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name + "." + sel.Sel.Name
	case *ast.SelectorExpr:
		return selectorText(x) + "." + sel.Sel.Name
	default:
		return "?." + sel.Sel.Name
	}
}
