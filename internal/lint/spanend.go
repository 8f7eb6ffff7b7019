package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"crumbcruncher/internal/lint/analysis"
)

// SpanEnd checks that a telemetry span obtained in a function is ended
// on every path out of it — by a defer, or by End/EndErr calls covering
// all returns. A span that is never ended silently never reaches the
// tracer ring: the walk it described vanishes from exported traces and
// crumbtrace's layer accounting drifts from the counters.
//
// It is the span class on the acquire/release engine (acqrel.go), with
// the engine's strict ownership rule (borrow: false):
//
//   - `defer sp.End()` / `defer sp.EndErr(err)` ends the value sp holds
//     at defer time; a deferred closure that ends sp covers whatever sp
//     holds at function exit;
//   - reassigning sp while the previous span is un-ended is reported;
//   - a handle whose call result is discarded is reported;
//   - any other use — passing the handle to a function (builtins
//     included), storing it, comparing it, indexing with it, or
//     capturing it in a non-deferred closure — transfers ownership and
//     ends the analysis for that variable (no report).
//
// Paths that exit via panic, os.Exit or t.Fatal are not required to end
// spans. Spans carry no disposition facts, and test files are analyzed
// too.
var SpanEnd = &analysis.Analyzer{
	Name: "spanend",
	Doc: "require telemetry spans to be ended on all paths (defer or all-return coverage)\n\n" +
		"Un-ended spans never reach the tracer ring, so traces silently lose\n" +
		"the work they were supposed to account for.",
	Run: func(pass *analysis.Pass) error {
		runAcqRel(pass, engineConfig{classes: []*resourceClass{spanClass}})
		return nil
	},
}

// spanClass is the telemetry span discipline: StartSpan acquires, End
// and EndErr release, and Attr returns its receiver.
var spanClass = &resourceClass{
	noun: "span",
	sourceResults: func(pass *analysis.Pass, call *ast.CallExpr) []int {
		if isSpanSource(pass.TypesInfo, call) {
			return []int{0}
		}
		return nil
	},
	releaseMethods: map[string]bool{"End": true, "EndErr": true},
	chainMethods:   map[string]bool{"Attr": true},
	msgDiscard:     "span handle discarded; End will never run and the span never reaches the tracer",
	msgLeakReturn: func(name string, acq string) string {
		return fmt.Sprintf("span %s started at %s is not ended on this return path", name, acq)
	},
	msgLeakEnd: func(name string) string {
		return fmt.Sprintf("span %s is not ended before the function returns; "+
			"add defer %s.End() or end it on every path", name, name)
	},
	msgReassign: func(name string, acq string) string {
		return fmt.Sprintf("span %s reassigned before End/EndErr; the span started at %s is lost", name, acq)
	},
	msgOverwrite: func(name string, acq string) string {
		return fmt.Sprintf("span %s overwritten before End/EndErr; the span started at %s is lost", name, acq)
	},
}

// isSpanSource reports whether e evaluates to a freshly started span:
// a StartSpan call, possibly extended by chained Attr calls.
func isSpanSource(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "StartSpan":
		return fromTelemetry(receiverNamed(info, sel.X))
	case "Attr":
		return isSpanSource(info, sel.X)
	}
	return false
}
