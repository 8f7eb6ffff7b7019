// Package linttest runs crumblint analyzers over fixture packages and
// checks their diagnostics against expectations written in the fixture
// source itself — the same golden-comment contract as x/tools'
// analysistest, rebuilt on the standard library.
//
// Fixtures live under testdata/src/<importpath>/. A line that should
// trigger a diagnostic carries a trailing comment of the form
//
//	// want `regexp` [`regexp` ...]
//
// with one regexp per expected diagnostic on that line. Diagnostics are
// filtered through //crumb:allow directives exactly like the real
// driver, so fixtures can (and do) assert that the escape hatch works.
//
// Fixture imports resolve first against testdata/src (letting fixtures
// supply fake stand-ins for crumbcruncher packages), then against the
// standard library via the build cache's export data.
package linttest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"crumbcruncher/internal/lint/analysis"
	"crumbcruncher/internal/lint/directive"
)

// Run analyzes each fixture package named by an import path under
// testdata/src and reports any mismatch between the analyzer's
// diagnostics and the fixtures' want comments as test failures.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	l := newLoader(t, filepath.Join(testdata, "src"))
	for _, p := range paths {
		l.check(a, p)
	}
}

// loader type-checks fixture packages, resolving fixture-local imports
// from source and everything else from gc export data.
type loader struct {
	t      *testing.T
	srcDir string
	fset   *token.FileSet
	pkgs   map[string]*fixturePkg
	std    types.Importer

	// facts memoizes per analyzer+package the fact set a fact-using
	// analyzer exported for a fixture package.
	facts map[string]*analysis.FactSet
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(t *testing.T, srcDir string) *loader {
	t.Helper()
	l := &loader{
		t:      t,
		srcDir: srcDir,
		fset:   token.NewFileSet(),
		pkgs:   make(map[string]*fixturePkg),
		facts:  make(map[string]*analysis.FactSet),
	}
	exports := stdExports(t, srcDir)
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not a fixture dir, not listed by go list)", path)
		}
		return os.Open(file)
	})
	return l
}

// stdExports maps every non-fixture import reachable from the fixture
// tree to its export-data file, via one `go list -export -deps` call.
func stdExports(t *testing.T, srcDir string) map[string]string {
	t.Helper()
	external := map[string]bool{}
	err := filepath.Walk(srcDir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if fi, err := os.Stat(filepath.Join(srcDir, filepath.FromSlash(p))); err == nil && fi.IsDir() {
				continue // fixture-provided package
			}
			external[p] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	out := map[string]string{}
	if len(external) == 0 {
		return out
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range external {
		args = append(args, p)
	}
	sort.Strings(args[5:])
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go list -export: %v\n%s", err, stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		name, file, ok := strings.Cut(line, "\t")
		if ok && file != "" {
			out[name] = file
		}
	}
	return out
}

// Import implements types.Importer: fixture directories take precedence
// over the real build, so fakes can shadow crumbcruncher packages.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := filepath.Join(l.srcDir, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package.
func (l *loader) load(path string) (*fixturePkg, error) {
	dir := filepath.Join(l.srcDir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: l, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := tc.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	p := &fixturePkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = p
	return p, nil
}

// check runs the analyzer over one fixture package and compares its
// directive-filtered diagnostics with the want comments.
func (l *loader) check(a *analysis.Analyzer, path string) {
	l.t.Helper()
	p, err := l.load(path)
	if err != nil {
		l.t.Fatal(err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.fset,
		Files:     p.files,
		Pkg:       p.pkg,
		TypesInfo: p.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		Facts:     analysis.NewFactSet(),
	}
	if a.UsesFacts {
		pass.DepFacts = func(dep string) *analysis.FactSet { return l.depFacts(a, dep) }
	}
	if err := a.Run(pass); err != nil {
		l.t.Fatalf("%s on %s: %v", a.Name, path, err)
	}
	allows := directive.Collect(l.fset, p.files)

	type key struct {
		file string
		line int
	}
	got := map[key][]string{}
	for _, d := range diags {
		if allows.Allowed(a.Name, d.Pos) {
			continue
		}
		pos := l.fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		got[k] = append(got[k], d.Message)
	}

	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants, ok := parseWants(l.t, l.fset, c)
				if !ok {
					continue
				}
				pos := l.fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, rx := range wants {
					if !consume(got, k, rx) {
						l.t.Errorf("%s:%d: no diagnostic matching %q (have %v)",
							pos.Filename, pos.Line, rx.String(), got[k])
					}
				}
			}
		}
	}
	for k, msgs := range got {
		for _, m := range msgs {
			l.t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, m)
		}
	}
}

// depFacts returns the facts analyzer a exports for the fixture
// package at dep, running a over it (and, recursively, its fixture
// dependencies) on first use. Non-fixture packages have no facts —
// exactly like the real driver, which keeps facts inside the module.
func (l *loader) depFacts(a *analysis.Analyzer, dep string) *analysis.FactSet {
	l.t.Helper()
	if fi, err := os.Stat(filepath.Join(l.srcDir, filepath.FromSlash(dep))); err != nil || !fi.IsDir() {
		return nil
	}
	key := a.Name + "\x00" + dep
	if fs, ok := l.facts[key]; ok {
		return fs
	}
	l.facts[key] = nil // cycle guard; valid Go imports cannot recurse
	p, err := l.load(dep)
	if err != nil {
		l.t.Fatalf("loading fact dependency %s: %v", dep, err)
	}
	facts := analysis.NewFactSet()
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      l.fset,
		Files:     p.files,
		Pkg:       p.pkg,
		TypesInfo: p.info,
		Report:    func(analysis.Diagnostic) {}, // diagnostics checked only for named packages
		Facts:     facts,
		DepFacts:  func(d string) *analysis.FactSet { return l.depFacts(a, d) },
	}
	if err := a.Run(pass); err != nil {
		l.t.Fatalf("%s on fact dependency %s: %v", a.Name, dep, err)
	}
	l.facts[key] = facts
	return facts
}

// consume removes the first diagnostic at k matching rx.
func consume[K comparable](got map[K][]string, k K, rx *regexp.Regexp) bool {
	for i, m := range got[k] {
		if rx.MatchString(m) {
			got[k] = append(got[k][:i], got[k][i+1:]...)
			if len(got[k]) == 0 {
				delete(got, k)
			}
			return true
		}
	}
	return false
}

// parseWants extracts the expectation regexps of a `// want ...`
// comment, each written as a Go string literal.
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) ([]*regexp.Regexp, bool) {
	t.Helper()
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil, false
	}
	var out []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		lit, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want expectation %q", fset.Position(c.Pos()), rest)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: malformed want string %q", fset.Position(c.Pos()), lit)
		}
		rx, err := regexp.Compile(s)
		if err != nil {
			t.Fatalf("%s: bad want regexp: %v", fset.Position(c.Pos()), err)
		}
		out = append(out, rx)
		rest = strings.TrimSpace(rest[len(lit):])
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}
