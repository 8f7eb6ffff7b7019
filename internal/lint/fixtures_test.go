package lint_test

import (
	"testing"

	"crumbcruncher/internal/lint"
	"crumbcruncher/internal/lint/linttest"
)

// Each analyzer has a golden fixture package under testdata/src with
// positive hits, idiomatic negatives, and //crumb:allow directive
// handling asserted line by line.

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.MapOrder, "maporder")
}

func TestSpanEnd(t *testing.T) {
	linttest.Run(t, "testdata", lint.SpanEnd, "spanend")
}

func TestFsyncpolicy(t *testing.T) {
	linttest.Run(t, "testdata", lint.Fsyncpolicy, "fsyncpolicy", "fsyncpolicy/internal/runstore")
}

// The interprocedural analyzers list their fact-exporting dependency
// packages too, asserting those stay diagnostic-free while their facts
// drive the cross-package cases in the main fixture.

func TestMustClose(t *testing.T) {
	linttest.Run(t, "testdata", lint.MustClose, "mustclose", "mustclose/internal/runstore")
}

func TestPoolReset(t *testing.T) {
	linttest.Run(t, "testdata", lint.PoolReset, "poolreset", "poolreset/internal/stats")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata", lint.CtxFlow, "ctxflow", "ctxflow/internal/core")
}

func TestSharedWrite(t *testing.T) {
	linttest.Run(t, "testdata", lint.SharedWrite,
		"sharedwrite", "sharedwrite/internal/parallel",
		"sharedwrite/internal/agg", "sharedwrite/internal/intern")
}
