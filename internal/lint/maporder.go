package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"crumbcruncher/internal/lint/analysis"
)

// MapOrder flags ranging over a map while producing order-sensitive
// output: appending to an outer slice that is never sorted afterwards,
// writing to an outer builder/buffer/encoder, printing, or emitting
// order-sensitive telemetry (spans, gauge sets). Map iteration order is
// deliberately randomized by the runtime, so each of these makes JSON,
// reports or metrics differ run to run — the canonical source of
// nondeterministic output in this codebase.
//
// The deterministic idiom is untouched: collecting keys into a slice
// and sorting it before use is recognized (a sort/slices call on the
// collected slice after the loop suppresses the append finding), and
// commutative telemetry (counter adds, histogram observes) stays legal
// because its final state is order-independent.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive output produced while ranging over a map\n\n" +
		"Collect keys, sort, then iterate; map order is randomized and leaks\n" +
		"straight into JSON, reports and traces.",
	Run: runMapOrder,
}

// mapWriteMethods are methods that accumulate output in call order.
var mapWriteMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// mapPrintFuncs are fmt emitters that publish in call order.
var mapPrintFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// telemetryOrdered are telemetry methods whose effect depends on call
// order: spans land in the tracer ring in sequence, and a gauge keeps
// its last write. Counter.Add/Inc and Histogram.Observe are commutative
// and therefore fine inside a map range.
var telemetryOrdered = map[string]bool{
	"StartSpan": true, "End": true, "EndErr": true,
	"Record": true, "Set": true,
}

func runMapOrder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if r, ok := n.(*ast.RangeStmt); ok && isMapRange(pass.TypesInfo, r) {
				checkMapRange(pass, r, enclosingBody(f, r))
			}
			return true
		})
	}
	return nil
}

// enclosingBody returns the body of the innermost function containing
// the node, or nil for file scope (impossible for statements).
func enclosingBody(f *ast.File, target ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= target.Pos() && target.End() <= body.End() {
			if best == nil || body.Pos() >= best.Pos() {
				best = body // innermost containing function wins
			}
		}
		return true
	})
	return best
}

// isMapRange reports whether the range statement iterates a map.
func isMapRange(info *types.Info, r *ast.RangeStmt) bool {
	tv, ok := info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange reports order-sensitive effects inside the body of a
// range-over-map statement.
func checkMapRange(pass *analysis.Pass, r *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, r, funcBody, n)
		case *ast.CallExpr:
			checkMapRangeCall(pass, r, n)
		}
		return true
	})
}

// checkMapRangeAppend flags `outer = append(outer, ...)` in the body
// unless the collected slice is sorted after the loop (the collect-keys
// idiom).
func checkMapRangeAppend(pass *analysis.Pass, r *ast.RangeStmt, funcBody *ast.BlockStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		target, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue // keyed targets (m[k] = append(...)) are order-free
		}
		obj := pass.TypesInfo.ObjectOf(target)
		if obj == nil || insideRange(r, obj.Pos()) {
			continue // per-iteration slice: order never observed
		}
		if funcBody != nil && sortedAfter(pass.TypesInfo, funcBody, r.End(), obj) {
			continue // collect-then-sort idiom
		}
		pass.Report(analysis.Diagnostic{
			Pos: call.Pos(),
			Message: "append to " + target.Name + " inside range over a map records map-iteration order; " +
				"sort " + target.Name + " after the loop, or iterate sorted keys",
		})
	}
}

// checkMapRangeCall flags emission calls whose effect depends on the
// iteration order.
func checkMapRangeCall(pass *analysis.Pass, r *ast.RangeStmt, call *ast.CallExpr) {
	if path, name, ok := pkgFunc(pass.TypesInfo, call.Fun); ok {
		if path == "fmt" && mapPrintFuncs[name] {
			pass.Report(analysis.Diagnostic{
				Pos:     call.Pos(),
				Message: "fmt." + name + " inside range over a map emits output in map-iteration order; iterate sorted keys",
			})
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := receiverNamed(pass.TypesInfo, sel.X)
	if fromTelemetry(recv) && telemetryOrdered[sel.Sel.Name] {
		pass.Report(analysis.Diagnostic{
			Pos: call.Pos(),
			Message: recv.Obj().Name() + "." + sel.Sel.Name + " inside range over a map is order-sensitive telemetry " +
				"(span sequence / last write); iterate sorted keys",
		})
		return
	}
	if !mapWriteMethods[sel.Sel.Name] {
		return
	}
	// Writes into a receiver that outlives the loop accumulate in map
	// order; a builder declared inside the body is a per-iteration temp.
	if root, ok := rootIdent(sel.X); ok {
		if obj := pass.TypesInfo.ObjectOf(root); obj != nil && insideRange(r, obj.Pos()) {
			return
		}
	}
	pass.Report(analysis.Diagnostic{
		Pos: call.Pos(),
		Message: sel.Sel.Name + " inside range over a map writes in map-iteration order; " +
			"iterate sorted keys or buffer per key and join deterministically",
	})
}

// insideRange reports whether pos falls within the range statement.
func insideRange(r *ast.RangeStmt, pos token.Pos) bool {
	return pos >= r.Pos() && pos < r.End()
}

// isBuiltinAppend reports whether the call is to the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether a sort/slices call mentioning obj appears
// after pos in the function body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		path, _, ok := pkgFunc(info, call.Fun)
		if !ok || (path != "sort" && path != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// rootIdent unwraps selectors/indexes/parens to the leftmost
// identifier: b.buf[i] -> b.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
