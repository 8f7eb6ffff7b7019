package lint_test

import (
	"bytes"
	"testing"

	"crumbcruncher/internal/lint"
	"crumbcruncher/internal/lint/driver"
)

// TestSelfLint runs every analyzer over the whole repository, tests
// included. The tree must stay clean: a violation fails here before it
// ever reaches CI's lint job.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole module")
	}
	var buf bytes.Buffer
	findings, err := driver.Run(&buf, driver.Options{
		Patterns:  []string{"crumbcruncher/..."},
		Analyzers: lint.All(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("crumblint found %d findings in the repository:\n%s", len(findings), buf.String())
	}
}
