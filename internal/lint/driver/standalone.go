package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"crumbcruncher/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	ForTest    string
	Deps       []string
	ImportMap  map[string]string
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// baseImportPath strips a test-variant suffix:
// "p [p.test]" -> "p".
func baseImportPath(id string) string {
	if i := strings.Index(id, " ["); i >= 0 {
		return id[:i]
	}
	return id
}

// loadPackages shells out to `go list -export -deps -test -json` and
// returns the analysis units among the listed patterns, test files
// included, with import resolution backed by the export data the build
// cache produced.
func loadPackages(patterns []string) ([]unit, error) {
	args := []string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,DepOnly,ForTest,Deps,ImportMap,Module,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list: %s", msg)
	}

	byID := make(map[string]*listPackage)
	var order []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		cp := p
		byID[cp.ImportPath] = &cp
		order = append(order, &cp)
	}

	// A package with in-package test files appears twice: as itself and
	// as "p [p.test]", whose GoFiles add the test files. The variant is
	// analyzed with every analyzer and reports the findings, so shared
	// files are reported exactly once; the plain package is analyzed
	// again by the fact-using analyzers alone, for the facts its
	// importers need. Units are keyed by go list's own identities, so
	// the unit graph is the build graph: a variant's test imports are
	// its own dependencies, not its package's, and two packages whose
	// in-package tests import each other do not wait on each other.
	hasVariant := make(map[string]bool)
	for _, p := range order {
		if p.ForTest != "" && baseImportPath(p.ImportPath) == p.ForTest {
			hasVariant[p.ForTest] = true
		}
	}
	isUnit := make(map[string]bool)
	for _, p := range order {
		if !p.DepOnly && !strings.HasSuffix(p.ImportPath, ".test") && len(p.GoFiles) > 0 {
			isUnit[p.ImportPath] = true
		}
	}
	// unitOf maps a dependency to the unit that analyzes it: itself, or
	// for a package recompiled for another package's test, which is
	// never a unit, the plain package.
	unitOf := func(id string) (string, bool) {
		if !isUnit[id] {
			id = baseImportPath(id)
		}
		return id, isUnit[id]
	}

	var units []unit
	for _, p := range order {
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			// cgo units cannot be type-checked without the generated
			// sources; the repository has none, but fail loudly rather
			// than silently skipping if one ever appears.
			return nil, fmt.Errorf("%s: cgo packages are not supported by crumblint", p.ImportPath)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		var deps []string
		depUnits := map[string]string{} // import path -> unit id
		for _, d := range p.Deps {
			if d, ok := unitOf(d); ok && d != p.ImportPath {
				if _, dup := depUnits[baseImportPath(d)]; !dup {
					depUnits[baseImportPath(d)] = d
					deps = append(deps, d)
				}
			}
		}
		sort.Strings(deps)
		importMap := p.ImportMap
		units = append(units, unit{
			importPath: baseImportPath(p.ImportPath),
			id:         p.ImportPath,
			goFiles:    files,
			goVersion:  goVersion,
			deps:       deps,
			depUnits:   depUnits,
			factsOnly:  hasVariant[p.ImportPath] && p.ForTest == "",
			resolve: func(path string) (string, error) {
				if mapped, ok := importMap[path]; ok {
					path = mapped
				}
				dep := byID[path]
				if dep == nil || dep.Export == "" {
					return "", fmt.Errorf("no export data for %q", path)
				}
				return dep.Export, nil
			},
		})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].id < units[j].id })
	return units, nil
}

// Options configures a run.
type Options struct {
	Patterns  []string
	Analyzers []*analysis.Analyzer
}

// Run loads and analyzes the packages matched by opts.Patterns, test
// files included, prints each finding to w, and returns the findings in
// unit order, each unit's sorted by position. Units run in parallel, up
// to GOMAXPROCS at a time, in dependency order: a unit starts only after
// the units it imports have finished, so their facts are available.
func Run(w io.Writer, opts Options) ([]Finding, error) {
	if err := analysis.Validate(opts.Analyzers); err != nil {
		return nil, err
	}
	units, err := loadPackages(opts.Patterns)
	if err != nil {
		return nil, err
	}

	// Dependency-ordered parallel execution: repeatedly run every unit
	// whose module deps are done, as one parallel wave. The wave shape
	// keeps completion deterministic without a work-stealing scheduler;
	// package DAGs are shallow enough that waves saturate the pool.
	type unitResult struct {
		findings []Finding
		facts    *analysis.FactSet
		err      error
	}
	done := make(map[string]*unitResult, len(units))
	factsFor := func(id string) *analysis.FactSet {
		if r, ok := done[id]; ok {
			return r.facts
		}
		return nil
	}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	pending := units
	for len(pending) > 0 {
		var wave []unit
		var next []unit
		for _, u := range pending {
			ready := true
			for _, d := range u.deps {
				if _, ok := done[d]; !ok {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, u)
			} else {
				next = append(next, u)
			}
		}
		if len(wave) == 0 {
			// A dependency cycle through the unit set cannot happen in
			// valid Go; guard against it anyway.
			return nil, fmt.Errorf("crumblint: dependency deadlock among %d units", len(next))
		}

		results := make([]unitResult, len(wave))
		var wg sync.WaitGroup
		for i := range wave {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				u := wave[i]
				u.depFacts = func(path string) *analysis.FactSet { return factsFor(u.depUnits[path]) }
				r := &results[i]
				r.findings, r.facts, r.err = checkUnit(token.NewFileSet(), u, opts.Analyzers)
			}(i)
		}
		wg.Wait()

		for i, u := range wave {
			if results[i].err != nil {
				return nil, fmt.Errorf("%s: %w", u.id, results[i].err)
			}
			done[u.id] = &results[i]
		}
		pending = next
	}

	// Deterministic output order: unit id order, findings pre-sorted.
	var findings []Finding
	for _, u := range units {
		findings = append(findings, done[u.id].findings...)
	}
	relativize(findings)
	printFindings(w, findings)
	return findings, nil
}
