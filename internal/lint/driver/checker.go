// Package driver runs crumblint analyzers over type-checked packages
// with nothing beyond the standard library: it loads the packages named
// by `./...`-style patterns through `go list -export`, type-checks them
// against the build cache's export data, and analyzes every unit
// (including test files) in dependency waves, handing each unit's facts
// to its dependents in memory.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"crumbcruncher/internal/lint/analysis"
	"crumbcruncher/internal/lint/directive"
)

// unit is one compilation unit ready to analyze: parsed inputs plus an
// importer for everything it references.
type unit struct {
	importPath string // canonical path, test-variant suffix stripped
	id         string // go list identity (may carry " [pkg.test]")
	goFiles    []string
	goVersion  string            // e.g. "go1.22"; empty means the toolchain default
	deps       []string          // ids of the units this one imports
	depUnits   map[string]string // import path -> id of the unit analyzing it

	// factsOnly runs only the fact-using analyzers and drops their
	// findings: the unit is a package whose test variant, another unit,
	// reports them.
	factsOnly bool

	// resolve maps a source-level import path to the export-data file
	// of the package it denotes in this unit's build.
	resolve func(path string) (string, error)

	// depFacts returns the fact set a dependency package exported, or
	// nil when none is available. Facts only flow inside the module
	// (the fact domain): checkUnit gates on the import path's first
	// segment.
	depFacts func(path string) *analysis.FactSet
}

// sameFactDomain reports whether two import paths share a first
// segment — the module boundary within which facts travel.
func sameFactDomain(a, b string) bool {
	cut := func(s string) string {
		if i := strings.IndexByte(s, '/'); i >= 0 {
			return s[:i]
		}
		return s
	}
	return cut(a) == cut(b)
}

// checkUnit parses, type-checks and analyzes one unit, returning
// directive-filtered findings sorted by position plus the facts the
// analyzers exported about the unit's own package. A parse or type
// error is returned as-is.
func checkUnit(fset *token.FileSet, u unit, analyzers []*analysis.Analyzer) ([]Finding, *analysis.FactSet, error) {
	var files []*ast.File
	for _, name := range u.goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := u.resolve(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: u.goVersion,
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
	pkg, err := tc.Check(u.importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}

	// One fact set per unit: facts are namespaced by analyzer name, so
	// every analyzer's exports land in the same set.
	facts := analysis.NewFactSet()
	depFacts := func(path string) *analysis.FactSet {
		if u.depFacts == nil || !sameFactDomain(path, u.importPath) {
			return nil
		}
		return u.depFacts(path)
	}

	allows := directive.Collect(fset, files)
	var out []Finding
	for _, a := range analyzers {
		if u.factsOnly && !a.UsesFacts {
			continue
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			Facts:     facts,
		}
		if a.UsesFacts {
			pass.DepFacts = depFacts
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, u.id, err)
		}
		if u.factsOnly {
			continue
		}
		for _, d := range diags {
			if allows.Allowed(a.Name, d.Pos) {
				continue
			}
			pos := fset.Position(d.Pos)
			out = append(out, Finding{
				Analyzer: a.Name,
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Message:  d.Message,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, facts, nil
}
