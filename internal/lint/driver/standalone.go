package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
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

// loadPackages shells out to `go list -export -deps -json` (plus -test
// when includeTests is set) and returns the analysis units among the
// listed patterns, with import resolution backed by the export data the
// build cache produced.
func loadPackages(patterns []string, includeTests bool) ([]unit, error) {
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,DepOnly,ForTest,Deps,ImportMap,Module,Error"}
	if includeTests {
		args = append(args, "-test")
	}
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
	// as "p [p.test]" whose GoFiles additionally include the test files.
	// Analyze the variant and skip the plain entry so shared files are
	// checked exactly once.
	hasVariant := make(map[string]bool)
	for _, p := range order {
		if p.ForTest != "" && baseImportPath(p.ImportPath) == p.ForTest {
			hasVariant[p.ForTest] = true
		}
	}

	// The analyzed set, keyed by canonical import path — dependency
	// edges and fact lookups are both expressed against it.
	analyzed := make(map[string]bool)
	for _, p := range order {
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") || len(p.GoFiles) == 0 {
			continue
		}
		if hasVariant[p.ImportPath] && p.ForTest == "" {
			continue
		}
		analyzed[baseImportPath(p.ImportPath)] = true
	}

	var units []unit
	for _, p := range order {
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if hasVariant[p.ImportPath] && p.ForTest == "" {
			continue
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
		self := baseImportPath(p.ImportPath)
		var deps []string
		seenDep := map[string]bool{}
		for _, d := range p.Deps {
			d = baseImportPath(d)
			if d != self && analyzed[d] && !seenDep[d] {
				seenDep[d] = true
				deps = append(deps, d)
			}
		}
		sort.Strings(deps)
		importMap := p.ImportMap
		units = append(units, unit{
			importPath: self,
			id:         p.ImportPath,
			goFiles:    files,
			goVersion:  goVersion,
			deps:       deps,
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

// Options configures a standalone run.
type Options struct {
	Patterns     []string
	IncludeTests bool
	Analyzers    []*analysis.Analyzer

	// CacheDir enables content-hash result caching when non-empty
	// (bin/.lintcache in the Makefile). A cached unit re-runs zero
	// analyzers.
	CacheDir string

	// Format selects the output written to w by Run: "plain" (default),
	// "json" or "sarif".
	Format string

	// BaselinePath, when non-empty, names a JSON baseline file; known
	// findings are suppressed from output and from the returned
	// Findings slice.
	BaselinePath string

	// WriteBaselinePath, when non-empty, records the run's findings as
	// the new baseline instead of reporting them.
	WriteBaselinePath string

	// Parallel caps concurrent units; 0 means GOMAXPROCS.
	Parallel int
}

// Result reports what a standalone run did — the counters exist so
// tests can assert cache behavior ("warm cache re-runs zero
// analyzers") rather than trusting it.
type Result struct {
	Findings     []Finding // after baseline filtering, deterministic order
	Suppressed   int       // findings matched by the baseline
	UnitsTotal   int
	UnitsCached  int
	AnalyzersRun int // analyzer executions (UnitsTotal-UnitsCached per-unit sets)
}

// Run loads, schedules and analyzes the packages matched by
// opts.Patterns, writes findings to w in opts.Format, and returns the
// run's Result. Units run in parallel in dependency order (a unit
// starts only after the units it imports have finished, so their facts
// are available), with per-unit result caching when CacheDir is set.
func Run(w io.Writer, opts Options) (*Result, error) {
	if err := analysis.Validate(opts.Analyzers); err != nil {
		return nil, err
	}
	units, err := loadPackages(opts.Patterns, opts.IncludeTests)
	if err != nil {
		return nil, err
	}

	var cache *lintCache
	if opts.CacheDir != "" {
		cache, err = openCache(opts.CacheDir, opts.Analyzers)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{UnitsTotal: len(units)}

	// Dependency-ordered parallel execution: repeatedly run every unit
	// whose module deps are done, as one parallel wave. The wave shape
	// keeps completion deterministic without a work-stealing scheduler;
	// package DAGs are shallow enough that waves saturate the pool.
	type unitResult struct {
		findings []finding
		facts    *analysis.FactSet
		cached   bool
		err      error
	}
	done := make(map[string]*unitResult, len(units))
	factsFor := func(path string) *analysis.FactSet {
		if r, ok := done[path]; ok && r != nil {
			return r.facts
		}
		return nil
	}

	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	pending := make([]unit, len(units))
	copy(pending, units)
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

		results := make([]*unitResult, len(wave))
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i := range wave {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				u := wave[i]
				r := &unitResult{}
				var key string
				if cache != nil {
					var hit bool
					key, hit, r.findings, r.facts = cache.lookup(u, factsFor)
					if hit {
						r.cached = true
						results[i] = r
						return
					}
				}
				u.depFacts = factsFor
				fset := token.NewFileSet()
				r.findings, r.facts, r.err = checkUnit(fset, u, opts.Analyzers)
				if r.err == nil && cache != nil && key != "" {
					cache.store(key, r.findings, r.facts)
				}
				results[i] = r
			}(i)
		}
		wg.Wait()

		for i, u := range wave {
			r := results[i]
			if r.err != nil {
				return nil, fmt.Errorf("%s: %w", u.id, r.err)
			}
			done[u.importPath] = r
			if r.cached {
				res.UnitsCached++
			} else {
				res.AnalyzersRun += len(opts.Analyzers)
			}
		}
		pending = next
	}

	// Deterministic output order: unit id order, findings pre-sorted.
	var all []finding
	for _, u := range units {
		all = append(all, done[u.importPath].findings...)
	}
	findings := exportFindings(all)

	if opts.WriteBaselinePath != "" {
		if err := writeBaseline(opts.WriteBaselinePath, findings); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %d baseline entries to %s\n", len(findings), opts.WriteBaselinePath)
		return res, nil
	}

	if opts.BaselinePath != "" {
		base, err := loadBaseline(opts.BaselinePath)
		if err != nil {
			return nil, err
		}
		findings, res.Suppressed = base.filter(findings)
	}
	res.Findings = findings

	switch opts.Format {
	case "", "plain":
		printFindings(w, findings)
	case "json":
		if err := writeJSON(w, findings); err != nil {
			return nil, err
		}
	case "sarif":
		if err := writeSARIF(w, opts.Analyzers, findings); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown output format %q (want plain, json or sarif)", opts.Format)
	}
	return res, nil
}

// runStandaloneMain is Run with command-line semantics.
func runStandaloneMain(w io.Writer, opts Options) {
	res, err := Run(w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname(), err)
		os.Exit(2)
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}
