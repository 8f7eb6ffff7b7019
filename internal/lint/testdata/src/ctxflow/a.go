// Fixture for the ctxflow analyzer: dropped cancellation via a fresh
// context.Background() (rule 1) and via a Background-wrapper callee
// whose fact crosses the package boundary (rule 2).
package ctxflow

import (
	"context"

	"ctxflow/internal/core"
)

// Rule 1: a fresh Background inside a context-aware function drops the
// caller's cancellation locally.
func lookupFresh(ctx context.Context, q string) (string, error) {
	return core.ResolveCtx(context.Background(), q) // want `passed to ResolveCtx inside a context-aware function; propagate ctx instead`
}

// Rule 2, fact-driven: the wrapper delegates with Background one level
// down, invisible without core's exported fact.
func lookupWrapper(ctx context.Context, q string) (string, error) {
	return core.Resolve(q) // want `Resolve drops ctx: it delegates to ResolveCtx`
}

// Propagating the context is the fix.
func lookupOK(ctx context.Context, q string) (string, error) {
	return core.ResolveCtx(ctx, q)
}

// Deriving a detached context through the context package itself is
// deliberate (detached lifetimes) and stays sanctioned.
func lookupDetached(ctx context.Context, q string) (string, error) {
	dctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return core.ResolveCtx(dctx, q)
}

// A context-free entry point may use the wrapper: that is what it is
// for.
func entry(q string) (string, error) {
	return core.Resolve(q)
}

// The DESIGN.md §9 mutation rows no test catches, as fixture cases.

// uid's streaming identifier handing its parallel classification a
// fresh Background.
func classifyGroups(ctx context.Context, groups []string, out []int) error {
	return core.ForEachCtx(context.Background(), len(groups), func(i int) { // want `passed to ForEachCtx inside a context-aware function; propagate ctx instead`
		out[i] = len(groups[i])
	})
}

// serve's reanalysis job re-identifying through the run's wrapper
// method, whose fact crosses the package boundary.
func reanalyze(ctx context.Context, run *core.Run) (string, error) {
	return run.Reidentify() // want `Reidentify drops ctx: it delegates to ResolveCtx`
}
