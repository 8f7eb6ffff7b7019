package analysis

import "go/types"

// A Fact is a statement an analyzer proves about a package-level object
// (a function, method or variable) while analyzing the package that
// declares it, for consumption when analyzing the packages that import
// it. It is the cross-package channel that turns crumblint's
// intra-procedural walkers into interprocedural analyses: a caller-side
// pass can ask "does this callee close its argument?" without seeing
// the callee's body, because the callee's package exported the answer
// as a fact.
//
// A fact is a plain value: a struct of booleans, numbers and strings,
// with no pointer, slice or map in it. A FactSet keeps the value as it
// was exported and ImportFact hands back a copy, so an importer cannot
// alter the exporter's fact. Facts must also be pure functions of the
// declaring package's source: a fact that varied between runs would
// flip its dependents' diagnostics between runs.
type Fact interface {
	// AFact is a marker method; it has no behavior. Implementing it
	// states the type is intended to cross the package boundary.
	AFact()
}

// ObjectPath names a package-level object (or a method of a package-
// level named type) relative to its package: "Func" for functions and
// variables, "Type.Method" for methods (pointer receivers unwrapped).
// The empty string means the object has no stable cross-package name
// (locals, anonymous functions) and cannot carry facts.
func ObjectPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				// Interface-embedded or weird receivers carry no facts.
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return "" // local object
	}
	return obj.Name()
}

// A FactSet holds the facts of one package, one per analyzer and
// object path: an analyzer exports a single fact type. The driver hands
// a finished set to the package's dependents in memory.
type FactSet struct {
	facts map[factKey]Fact
}

type factKey struct{ analyzer, obj string }

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{facts: make(map[factKey]Fact)}
}

// ExportFact records fact f about obj on behalf of p's analyzer,
// replacing any earlier one. obj must be declared at package level in
// the pass's own package; other objects, and objects without a stable
// cross-package name (locals, anonymous functions), are ignored.
func ExportFact[F Fact](p *Pass, obj types.Object, f F) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	if path := ObjectPath(obj); path != "" {
		p.Facts.facts[factKey{p.Analyzer.Name, path}] = f
	}
}

// ImportFact returns a copy of the F fact that p's analyzer exported
// about obj — from the current pass for same-package objects, from the
// driver-provided dependency sets otherwise — and whether there was
// one.
func ImportFact[F Fact](p *Pass, obj types.Object) (F, bool) {
	var zero F
	if obj == nil || obj.Pkg() == nil {
		return zero, false
	}
	s := p.Facts
	if obj.Pkg() != p.Pkg {
		if p.DepFacts == nil {
			return zero, false
		}
		s = p.DepFacts(obj.Pkg().Path())
	}
	path := ObjectPath(obj)
	if s == nil || path == "" {
		return zero, false
	}
	f, ok := s.facts[factKey{p.Analyzer.Name, path}].(F)
	return f, ok
}
