package driver

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crumbcruncher/internal/lint"
	"crumbcruncher/internal/lint/analysis"
)

// testModule writes a small two-package module exercising the
// fact-driven mustclose cases: the dep package exports dispositions
// (Drain releases, Count borrows) and the root package leaks a cursor
// that only the borrow fact makes visible.
const testModGomod = "module cachemod\n\ngo 1.22\n"

const testModDep = `package runstore

type Store struct{ open bool }

func Open(dir string) (*Store, error) {
	_ = dir
	return &Store{open: true}, nil
}

func (s *Store) Close() error { s.open = false; return nil }

type Cursor struct{ n int }

func (s *Store) Iter() *Cursor { return &Cursor{n: 3} }

func (c *Cursor) Next() bool { c.n--; return c.n > 0 }

func (c *Cursor) Close() error { return nil }

// Count borrows the cursor: the caller keeps its Close obligation.
func Count(c *Cursor) int {
	n := 0
	for c.Next() {
		n++
	}
	return n
}
`

const testModMain = `package main

import "cachemod/internal/runstore"

func main() {
	st, err := runstore.Open("x")
	if err != nil {
		return
	}
	defer st.Close()
	cur := st.Iter()
	_ = runstore.Count(cur)
}
`

func writeTestModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", testModGomod)
	write("internal/runstore/runstore.go", testModDep)
	write("main.go", testModMain)
	return dir
}

// runIn runs Run over the module at dir with the given options filled
// in (Patterns defaults to ./...).
func runIn(t *testing.T, dir string, opts Options) *Result {
	t.Helper()
	t.Chdir(dir)
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if len(opts.Analyzers) == 0 {
		opts.Analyzers = []*analysis.Analyzer{lint.MustClose}
	}
	var buf bytes.Buffer
	res, err := Run(&buf, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func findingStrings(res *Result) []string {
	var out []string
	for _, f := range res.Findings {
		out = append(out, filepath.ToSlash(f.File)+": "+f.Message+" ["+f.Analyzer+"]")
	}
	return out
}

// TestFactDrivenFinding is the cross-package baseline for everything
// below: the leak in main.go is only visible because runstore.Count's
// borrow fact crosses the package boundary.
func TestFactDrivenFinding(t *testing.T) {
	dir := writeTestModule(t)
	res := runIn(t, dir, Options{})
	if len(res.Findings) != 1 {
		t.Fatalf("want exactly the fact-driven cursor leak, got %v", findingStrings(res))
	}
	f := res.Findings[0]
	if f.Analyzer != "mustclose" || !strings.Contains(f.Message, "cursor cur") {
		t.Fatalf("unexpected finding: %+v", f)
	}
}

func TestCacheHitOnUnchangedPackages(t *testing.T) {
	dir := writeTestModule(t)
	cache := filepath.Join(dir, "lintcache")

	cold := runIn(t, dir, Options{CacheDir: cache})
	if cold.UnitsCached != 0 {
		t.Fatalf("cold run: UnitsCached = %d, want 0", cold.UnitsCached)
	}
	if cold.AnalyzersRun != cold.UnitsTotal {
		t.Fatalf("cold run: AnalyzersRun = %d, want %d", cold.AnalyzersRun, cold.UnitsTotal)
	}

	warm := runIn(t, dir, Options{CacheDir: cache})
	if warm.UnitsCached != warm.UnitsTotal {
		t.Fatalf("warm run: UnitsCached = %d, want %d (all)", warm.UnitsCached, warm.UnitsTotal)
	}
	if warm.AnalyzersRun != 0 {
		t.Fatalf("warm run re-ran %d analyzers, want 0", warm.AnalyzersRun)
	}
	if got, want := findingStrings(warm), findingStrings(cold); !equalStrings(got, want) {
		t.Fatalf("cached findings diverge:\ncold: %v\nwarm: %v", want, got)
	}
}

func TestCacheInvalidationOnSourceEdit(t *testing.T) {
	dir := writeTestModule(t)
	cache := filepath.Join(dir, "lintcache")
	runIn(t, dir, Options{CacheDir: cache})

	// Fix the leak; only the edited unit re-runs.
	fixed := strings.Replace(testModMain, "cur := st.Iter()", "cur := st.Iter()\n\tdefer cur.Close()", 1)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(fixed), 0o666); err != nil {
		t.Fatal(err)
	}
	res := runIn(t, dir, Options{CacheDir: cache})
	if res.AnalyzersRun != 1 {
		t.Fatalf("after editing main.go: AnalyzersRun = %d, want 1 (dep stays cached)", res.AnalyzersRun)
	}
	if res.UnitsCached != res.UnitsTotal-1 {
		t.Fatalf("after editing main.go: UnitsCached = %d, want %d", res.UnitsCached, res.UnitsTotal-1)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("leak fixed but still reported: %v", findingStrings(res))
	}
}

func TestCacheInvalidationOnDependencyFactChange(t *testing.T) {
	dir := writeTestModule(t)
	cache := filepath.Join(dir, "lintcache")
	runIn(t, dir, Options{CacheDir: cache})

	// A comment-only dep edit changes the dep's source hash but not its
	// facts: the dep re-runs, the dependent stays cached.
	depFile := filepath.Join(dir, "internal", "runstore", "runstore.go")
	if err := os.WriteFile(depFile, []byte(testModDep+"\n// trailing comment\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	res := runIn(t, dir, Options{CacheDir: cache})
	if res.AnalyzersRun != 1 {
		t.Fatalf("comment-only dep edit: AnalyzersRun = %d, want 1 (dependent keyed on fact hash, not source)", res.AnalyzersRun)
	}

	// Making Count close the cursor changes the exported disposition, so
	// the dependent's fact-hash key misses too — and its finding dies.
	changed := strings.Replace(testModDep,
		"func Count(c *Cursor) int {",
		"func Count(c *Cursor) int {\n\tdefer c.Close()", 1)
	if err := os.WriteFile(depFile, []byte(changed), 0o666); err != nil {
		t.Fatal(err)
	}
	res = runIn(t, dir, Options{CacheDir: cache})
	if res.UnitsCached != 0 {
		t.Fatalf("fact change: UnitsCached = %d, want 0 (dependent invalidated)", res.UnitsCached)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("Count now closes the cursor, but the stale finding survived: %v", findingStrings(res))
	}
}

func TestCacheInvalidationOnAnalyzerVersionBump(t *testing.T) {
	dir := writeTestModule(t)
	cache := filepath.Join(dir, "lintcache")
	runIn(t, dir, Options{CacheDir: cache})

	bumped := *lint.MustClose
	bumped.Version = "v1-test-bump"
	res := runIn(t, dir, Options{CacheDir: cache, Analyzers: []*analysis.Analyzer{&bumped}})
	if res.UnitsCached != 0 {
		t.Fatalf("version bump: UnitsCached = %d, want 0", res.UnitsCached)
	}
}

func TestBaselineSuppression(t *testing.T) {
	dir := writeTestModule(t)
	baseline := filepath.Join(dir, "baseline.json")

	res := runIn(t, dir, Options{WriteBaselinePath: baseline})
	if len(res.Findings) != 0 {
		t.Fatalf("write-baseline mode still reported findings: %v", findingStrings(res))
	}

	res = runIn(t, dir, Options{BaselinePath: baseline})
	if len(res.Findings) != 0 || res.Suppressed != 1 {
		t.Fatalf("baselined run: findings=%v suppressed=%d, want none/1", findingStrings(res), res.Suppressed)
	}

	// A new finding in a baselined tree still fails.
	extra := testModMain + "\nfunc leak2() {\n\tst, _ := runstore.Open(\"y\")\n\t_ = st.Len()\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(extra), 0o666); err != nil {
		t.Fatal(err)
	}
	// st.Len does not exist in the test dep; add it.
	dep := strings.Replace(testModDep, "func (s *Store) Close() error { s.open = false; return nil }",
		"func (s *Store) Close() error { s.open = false; return nil }\n\nfunc (s *Store) Len() int { return 0 }", 1)
	if err := os.WriteFile(filepath.Join(dir, "internal", "runstore", "runstore.go"), []byte(dep), 0o666); err != nil {
		t.Fatal(err)
	}
	res = runIn(t, dir, Options{BaselinePath: baseline})
	if len(res.Findings) != 1 || res.Suppressed != 1 {
		t.Fatalf("new finding should surface past the baseline: findings=%v suppressed=%d",
			findingStrings(res), res.Suppressed)
	}
}

func TestJSONAndSARIFOutput(t *testing.T) {
	dir := writeTestModule(t)
	t.Chdir(dir)

	var buf bytes.Buffer
	if _, err := Run(&buf, Options{Patterns: []string{"./..."}, Analyzers: []*analysis.Analyzer{lint.MustClose}, Format: "json"}); err != nil {
		t.Fatal(err)
	}
	var arr []Finding
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.String())
	}
	if len(arr) != 1 || arr[0].Analyzer != "mustclose" {
		t.Fatalf("unexpected JSON findings: %+v", arr)
	}

	buf.Reset()
	if _, err := Run(&buf, Options{Patterns: []string{"./..."}, Analyzers: []*analysis.Analyzer{lint.MustClose}, Format: "sarif"}); err != nil {
		t.Fatal(err)
	}
	var sarif struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sarif); err != nil {
		t.Fatalf("-sarif output does not parse: %v\n%s", err, buf.String())
	}
	if sarif.Version != "2.1.0" || len(sarif.Runs) != 1 || sarif.Runs[0].Tool.Driver.Name != "crumblint" {
		t.Fatalf("malformed SARIF envelope: %s", buf.String())
	}
	if len(sarif.Runs[0].Results) != 1 || sarif.Runs[0].Results[0].RuleID != "mustclose" {
		t.Fatalf("unexpected SARIF results: %s", buf.String())
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
