// Package analysis is a dependency-free re-implementation of the core
// of golang.org/x/tools/go/analysis: the Analyzer/Pass/Diagnostic
// contract that crumblint's checkers are written against.
//
// The repository deliberately has no module dependencies (the whole
// pipeline is standard library only), so rather than importing x/tools
// this package defines the same shapes from scratch. Checkers written
// against it look exactly like upstream analyzers — a Name, a Doc
// string, and a Run function over a type-checked Pass — and the driver
// in internal/lint/driver loads packages through go list and runs them.
//
// Only the subset crumblint needs is implemented: no Requires-DAG, no
// suggested fixes, no result values. Diagnostics are position-accurate
// (token.Pos into the Pass's FileSet). Object facts (facts.go) are
// supported: an analyzer can export plain-value statements about its
// package's objects and import the statements dependency packages
// exported, which is what makes the resource-discipline analyzers
// interprocedural.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line flags
	// and //crumb:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary,
	// optionally followed by a blank line and further paragraphs.
	Doc string

	// UsesFacts declares that Run exports and/or imports object facts.
	// The driver only plumbs dependency fact sets for analyzers that
	// ask.
	UsesFacts bool

	// Run applies the analyzer to a single type-checked package.
	Run func(*Pass) error
}

// A Pass presents one type-checked compilation unit to an Analyzer's
// Run function, and collects what it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver fills this in.
	Report func(Diagnostic)

	// Facts collects the facts this pass proves about its own package's
	// objects. The driver fills it in.
	Facts *FactSet

	// DepFacts returns the fact set of an imported package, or nil when
	// the driver has none for that path — because the package is
	// outside the fact domain (another module, the standard library) or
	// was never analyzed. A non-nil but empty set means "analyzed,
	// proved nothing", which is semantically different: the analyzer
	// may then assume the absence of a fact is a negative answer.
	DepFacts func(path string) *FactSet
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding of an analyzer, anchored at a position of
// the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate checks that the analyzers are well formed (named, runnable,
// no duplicate names); drivers call it once at startup.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a == nil {
			return fmt.Errorf("nil *Analyzer")
		}
		if a.Name == "" {
			return fmt.Errorf("analyzer with empty name (doc: %.40q)", a.Doc)
		}
		if a.Run == nil {
			return fmt.Errorf("analyzer %q has no Run function", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
