// Package core is a fixture stand-in for the context-aware core: a
// FooCtx entry point plus the Background-wrapper convenience form,
// whose ctxWrapFact ctxflow exports and consumes across packages.
package core

import "context"

// ResolveCtx is the context-aware core entry point.
func ResolveCtx(ctx context.Context, q string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return q, nil
}

// Resolve is the convenience wrapper for context-free callers. Exports
// a ctxWrapFact naming ResolveCtx.
func Resolve(q string) (string, error) {
	return ResolveCtx(context.Background(), q)
}

// ForEachCtx is a context-aware fan-out, like parallel.ForEachTimedCtx.
func ForEachCtx(ctx context.Context, n int, body func(i int)) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		body(i)
	}
	return nil
}

// Run is a finished run whose Reidentify method is a Background
// wrapper: exports a ctxWrapFact naming ResolveCtx.
type Run struct{ Q string }

func (r *Run) Reidentify() (string, error) {
	return ResolveCtx(context.Background(), r.Q)
}
