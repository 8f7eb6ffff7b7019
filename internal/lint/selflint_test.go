package lint_test

import (
	"bytes"
	"io"
	"os"
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
	res, err := driver.Run(&buf, driver.Options{
		Patterns:     []string{"crumbcruncher/..."},
		IncludeTests: true,
		Analyzers:    lint.All(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("crumblint found %d findings in the repository:\n%s", len(res.Findings), buf.String())
	}
}

// BenchmarkSelfLint measures a full-repository lint, cold (empty result
// cache: every analyzer runs on every unit) versus warm (populated
// cache: zero analyzers run). CI runs it with -benchtime 1x so both
// wall times land in the log next to the lint job.
func BenchmarkSelfLint(b *testing.B) {
	selfLint := func(b *testing.B, cacheDir string) *driver.Result {
		b.Helper()
		res, err := driver.Run(io.Discard, driver.Options{
			Patterns:     []string{"crumbcruncher/..."},
			IncludeTests: true,
			Analyzers:    lint.All(),
			CacheDir:     cacheDir,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "lintcache")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res := selfLint(b, dir)
			b.StopTimer()
			if res.UnitsCached != 0 {
				b.Fatalf("cold run hit the cache: %d/%d units", res.UnitsCached, res.UnitsTotal)
			}
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		selfLint(b, dir) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := selfLint(b, dir)
			if res.AnalyzersRun != 0 {
				b.Fatalf("warm run re-ran %d analyzers", res.AnalyzersRun)
			}
		}
	})
}
