package spanend

import (
	"errors"
	"os"

	"crumbcruncher/internal/telemetry"
)

func work() {}

func okDefer(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "ok")
	defer sp.End()
	work()
}

func okAllPaths(tel *telemetry.Telemetry, b bool) {
	sp := tel.StartSpan("layer", "paths")
	if b {
		sp.EndErr(errors.New("branch"))
		return
	}
	sp.End()
}

func okChained(tel *telemetry.Telemetry, err error) {
	sp := tel.StartSpan("layer", "chain").Attr("k", "v")
	if err != nil {
		sp.Attr("fault", "x").EndErr(err)
		return
	}
	sp.Attr("status", "200").End()
}

func okDeferredClosure(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "closure")
	defer func() { sp.EndErr(nil) }()
	// The deferred closure ends whatever sp holds last, so swapping the
	// handle mid-function is covered.
	sp = tel.StartSpan("layer", "closure2")
	work()
}

func okTerminalPath(tel *telemetry.Telemetry, err error) {
	sp := tel.StartSpan("layer", "fatal")
	if err != nil {
		os.Exit(1) // paths that never return need not end the span
	}
	sp.End()
}

func okOwnershipTransfer(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "handoff")
	stash(sp) // passing the handle on transfers the End obligation
}

func stash(sp *telemetry.Active) { sp.End() }

func leakFallOff(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "leak") // want `span sp is not ended before the function returns`
	sp.Attr("k", "v")
}

func leakBranch(tel *telemetry.Telemetry, b bool) {
	sp := tel.StartSpan("layer", "branch")
	if b {
		sp.End()
		return
	}
	return // want `span sp started at a\.go:[0-9]+ is not ended on this return path`
}

func discarded(tel *telemetry.Telemetry) {
	tel.StartSpan("layer", "drop")      // want `span handle discarded`
	_ = tel.StartSpan("layer", "drop2") // want `span handle discarded`
}

func reassigned(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "first")
	sp = tel.StartSpan("layer", "second") // want `span sp reassigned before End/EndErr`
	sp.End()
}

func allowedLeak(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "waived") //crumb:allow spanend fixture: span intentionally kept open
	sp.Attr("k", "v")
}

func okNilGuard(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "guard")
	if sp != nil { // comparing the handle transfers it: no report
		sp.End()
	}
}

func okAppendReturn(tel *telemetry.Telemetry, list []*telemetry.Active) []*telemetry.Active {
	sp := tel.StartSpan("layer", "append")
	return append(list, sp)
}

func okMapKey(tel *telemetry.Telemetry, m map[*telemetry.Active]bool) {
	sp := tel.StartSpan("layer", "key")
	m[sp] = true
}

func overwritten(tel *telemetry.Telemetry) {
	sp := tel.StartSpan("layer", "nil")
	sp = nil // want `span sp overwritten before End/EndErr`
	sp.End()
}

func leakSwitch(tel *telemetry.Telemetry, k int) {
	sp := tel.StartSpan("layer", "switch") // want `span sp is not ended before the function returns`
	switch k {
	case 1:
		sp.End()
	case 2:
		work()
	}
}

func leakLoop(tel *telemetry.Telemetry, n int) {
	sp := tel.StartSpan("layer", "loop") // want `span sp is not ended before the function returns`
	for i := 0; i < n; i++ {
		sp.End()
	}
}

// The DESIGN.md §9 mutation row no test catches, as a fixture case:
// core.ExecuteContext's build_world span tagged instead of ended.
func buildWorldNotEnded(tel *telemetry.Telemetry) int {
	sp := tel.StartSpan("core", "build_world")
	sites := 800
	sp.Attr("sites", "built")
	return sites // want `span sp started at a\.go:[0-9]+ is not ended on this return path`
}
