// Package lint holds crumblint's analyzers: machine-checked versions of
// the invariants crumbcruncher's determinism guarantee rests on. Each
// analyzer documents one rule; DESIGN.md §9 records the rationale and
// the incident history behind them.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// All returns every crumblint analyzer, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrder,
		SpanEnd,
		Fsyncpolicy,
		MustClose,
		PoolReset,
		CtxFlow,
		SharedWrite,
	}
}

// pkgFunc resolves an expression of the form pkg.Name where pkg is an
// imported package identifier, returning the imported package path and
// selected name; ok is false for any other shape (method calls, locals,
// qualified types through vars, ...).
func pkgFunc(info *types.Info, e ast.Expr) (path, name string, ok bool) {
	sel, okSel := e.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isTestFile reports whether the file's name marks it as a test file,
// which several analyzers treat as outside the determinism envelope.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}

// telemetryPkg reports whether path is the repository's telemetry
// package. Matching by suffix keeps the analyzers testable from fixture
// trees that reproduce the package under a different module prefix.
func telemetryPkg(path string) bool {
	return path == "crumbcruncher/internal/telemetry" || strings.HasSuffix(path, "/internal/telemetry")
}

// receiverNamed returns the named type of an expression's type with
// pointers unwrapped, or nil.
func receiverNamed(info *types.Info, e ast.Expr) *types.Named {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// fromTelemetry reports whether the named type is declared in the
// telemetry package.
func fromTelemetry(n *types.Named) bool {
	return n != nil && n.Obj() != nil && n.Obj().Pkg() != nil && telemetryPkg(n.Obj().Pkg().Path())
}
