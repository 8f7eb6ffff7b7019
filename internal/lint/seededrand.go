package lint

import (
	"go/ast"
	"strconv"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// SeededRand forbids math/rand outside internal/stats. All randomness
// must descend from stats.RNG's seed lineage (DeriveSeed / Splitter),
// which is what makes a run a pure function of its seed: the global
// math/rand source is process-wide mutable state, and even a locally
// constructed rand.New hides its seed from the provenance record.
var SeededRand = &analysis.Analyzer{
	Name: "seededrand",
	Doc: "forbid math/rand outside internal/stats; use stats.RNG lineage\n\n" +
		"Global rand functions and raw rand.New sources bypass the seed\n" +
		"derivation tree that makes runs reproducible.",
	Run: runSeededRand,
}

// randPackages are the import paths the rule covers. Both rand
// generations are forbidden: v2 has no global Seed but its global
// functions are still process-seeded.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// statsPkg reports whether path is the sanctioned wrapper package.
func statsPkg(path string) bool {
	return path == "crumbcruncher/internal/stats" || strings.HasSuffix(path, "/internal/stats")
}

func runSeededRand(pass *analysis.Pass) (interface{}, error) {
	if statsPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		reported := false
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass.TypesInfo, sel)
			if !ok || !randPackages[path] {
				return true
			}
			reported = true
			pass.Report(analysis.Diagnostic{
				Pos: sel.Pos(),
				Message: "rand." + name + " draws from " + path + ", outside the seeded stats.RNG lineage; " +
					"derive randomness from stats.NewRNG/Splitter so runs stay a pure function of the seed",
			})
			return true
		})
		if reported {
			continue
		}
		// No qualified uses but the package is imported anyway (dot or
		// blank import): flag the import itself.
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !randPackages[path] {
				continue
			}
			pass.Report(analysis.Diagnostic{
				Pos:     imp.Pos(),
				Message: "import of " + path + " outside internal/stats; use the seeded stats.RNG lineage instead",
			})
		}
	}
	return nil, nil
}
