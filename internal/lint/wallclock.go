package lint

import (
	"go/ast"

	"crumbcruncher/internal/lint/analysis"
)

// Wallclock forbids reading the wall clock in pipeline code. Every
// schedule-dependent quantity the pipeline computes must come from the
// virtual clock or a seeded RNG; this is the analyzer that would have
// caught PR 4's `ts=` bug, where web.benignQuery read the live shared
// virtual clock from a worker goroutine and made metrics depend on the
// parallel schedule.
//
// Exemptions: *_test.go files (tests and benchmarks measure real time
// by design), and sites annotated //crumb:allow wallclock — the
// telemetry stopwatch, shard timing, and CLI progress reporting are the
// intended members of that explicit allowlist.
var Wallclock = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now, Sleep, timers) outside annotated sites\n\n" +
		"Run results must be a pure function of the seed; real time may only be\n" +
		"observed at sites visibly annotated with //crumb:allow wallclock.",
	Run: runWallclock,
}

// wallclockForbidden lists the time package's wall-clock entry points.
// time.Date, time.Parse, time.Unix and friends are pure and stay legal.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWallclock(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass.TypesInfo, sel)
			if !ok || path != "time" || !wallclockForbidden[name] {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: sel.Pos(),
				Message: "time." + name + " reads the wall clock, making results depend on the host and schedule; " +
					"use the virtual clock or a seeded RNG, or annotate a legitimately-wall site with //crumb:allow wallclock",
			})
			return true
		})
	}
	return nil, nil
}
