package driver

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crumbcruncher/internal/lint"
	"crumbcruncher/internal/lint/analysis"
)

// testModule writes a small two-package module exercising the
// fact-driven mustclose cases: the dep package exports dispositions
// (Drain releases, Count borrows) and the root package leaks a cursor
// that only the borrow fact makes visible.
const testModGomod = "module factmod\n\ngo 1.22\n"

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

import "factmod/internal/runstore"

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
// in (Patterns defaults to ./..., Analyzers to mustclose) and returns
// the findings and what Run printed.
func runIn(t *testing.T, dir string, opts Options) ([]Finding, string) {
	t.Helper()
	t.Chdir(dir)
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if len(opts.Analyzers) == 0 {
		opts.Analyzers = []*analysis.Analyzer{lint.MustClose}
	}
	var buf bytes.Buffer
	findings, err := Run(&buf, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return findings, buf.String()
}

func findingStrings(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, filepath.ToSlash(f.File)+": "+f.Message+" ["+f.Analyzer+"]")
	}
	return out
}

// TestFactDrivenFinding is the cross-package case: the leak in main.go
// is only visible because runstore.Count's borrow fact crosses the
// package boundary.
func TestFactDrivenFinding(t *testing.T) {
	dir := writeTestModule(t)
	findings, _ := runIn(t, dir, Options{})
	if len(findings) != 1 {
		t.Fatalf("want exactly the fact-driven cursor leak, got %v", findingStrings(findings))
	}
	f := findings[0]
	if f.Analyzer != "mustclose" || !strings.Contains(f.Message, "cursor cur") {
		t.Fatalf("unexpected finding: %+v", f)
	}
}

// TestOutputMatchesProblemMatcher pins crumblint's one output format to
// its one consumer: CI's problem matcher must parse the printed line
// back into the finding's file, line, column, message and analyzer, or
// findings fail the job without an inline annotation.
func TestOutputMatchesProblemMatcher(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", ".github", "crumblint-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp                            string
				File, Line, Column, Message, Code int
			}
		}
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatalf("crumblint-matcher.json: %v", err)
	}
	if len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %s", data)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	rx, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp: %v", err)
	}

	findings, out := runIn(t, writeTestModule(t), Options{})
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(findings) != 1 || len(lines) != 1 {
		t.Fatalf("want one finding on one line, got %d findings and output %q", len(findings), out)
	}
	m := rx.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("matcher regexp %q does not match %q", pat.Regexp, lines[0])
	}
	f := findings[0]
	for _, c := range []struct {
		field string
		group int
		want  string
	}{
		{"file", pat.File, f.File},
		{"line", pat.Line, strconv.Itoa(f.Line)},
		{"column", pat.Column, strconv.Itoa(f.Column)},
		{"message", pat.Message, f.Message},
		{"code", pat.Code, f.Analyzer},
	} {
		if c.group <= 0 || c.group >= len(m) {
			t.Errorf("matcher %s group %d out of range", c.field, c.group)
		} else if m[c.group] != c.want {
			t.Errorf("matcher %s = %q, want %q", c.field, m[c.group], c.want)
		}
	}
}

// testModLeaks leaks a run store on a return path and loses one to a
// reassignment: both findings name the acquire site in their message.
const testModLeaks = `package main

import "factmod/internal/runstore"

func leak(early bool) error {
	st, err := runstore.Open("x")
	if err != nil {
		return err
	}
	if early {
		return nil
	}
	return st.Close()
}

func reassign() {
	st, _ := runstore.Open("a")
	st, _ = runstore.Open("b")
	st.Close()
}

func main() {
	_ = leak(true)
	reassign()
}
`

// TestFindingMessagesNameNoCheckoutPath checks that a finding's message
// names its acquire site by file base name and line, never by the
// module's absolute directory, so the text does not depend on where
// the tree is checked out.
func TestFindingMessagesNameNoCheckoutPath(t *testing.T) {
	dir := writeTestModule(t)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(testModLeaks), 0o666); err != nil {
		t.Fatal(err)
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := runIn(t, dir, Options{})
	if len(findings) != 2 {
		t.Fatalf("want the return-path leak and the reassignment, got %v", findingStrings(findings))
	}
	for _, f := range findings {
		if strings.Contains(f.Message, dir) || strings.Contains(f.Message, real) {
			t.Errorf("message names the module directory: %s", f.Message)
		}
		if !strings.Contains(f.Message, "acquired at main.go:") {
			t.Errorf("message does not name its acquire site as main.go:LINE: %s", f.Message)
		}
	}
}

// TestInPackageTestsImportEachOther is the module shape where each of
// two packages' in-package tests imports the other package, which is
// valid Go: the test variants depend on each other's plain packages,
// never on each other. The fact-driven leak in main.go needs runstore's
// facts from its plain package, and the leak in runstore.go, a file
// both the plain package and its test variant hold, is reported once.
func TestInPackageTestsImportEachOther(t *testing.T) {
	dir := writeTestModule(t)
	for rel, content := range map[string]string{
		"internal/runstore/leak.go": `package runstore

func leakInside(early bool) error {
	st, err := Open("y")
	if err != nil {
		return err
	}
	if early {
		return nil
	}
	return st.Close()
}
`,
		"internal/runstore/runstore_test.go": `package runstore

import (
	"testing"

	"factmod/internal/chaos"
)

func TestFaults(t *testing.T) { _ = chaos.Faults() }
`,
		"internal/chaos/chaos.go": `package chaos

func Faults() int { return 0 }
`,
		"internal/chaos/chaos_test.go": `package chaos

import (
	"testing"

	"factmod/internal/runstore"
)

func TestStore(t *testing.T) {
	st, err := runstore.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
}
`,
	} {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	findings, _ := runIn(t, dir, Options{})
	got := findingStrings(findings)
	if len(got) != 2 || !strings.HasSuffix(findings[0].File, "main.go") || !strings.Contains(findings[0].Message, "cursor cur") ||
		!strings.HasSuffix(findings[1].File, "leak.go") {
		t.Fatalf("want the leak in leak.go and the fact-driven cursor leak in main.go, once each; got %v", got)
	}
}
