package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"strings"
)

// A Fact is a typed, serializable statement an analyzer proves about a
// package-level object (a function, method or variable) while analyzing
// the package that declares it, for consumption when analyzing the
// packages that import it. It is the cross-package channel that turns
// crumblint's intra-procedural walkers into interprocedural analyses: a
// caller-side pass can ask "does this callee close its argument?"
// without seeing the callee's body, because the callee's package
// exported the answer as a fact.
//
// Facts must be JSON-serializable (a FactSet stores each one encoded,
// so an importing pass decodes its own copy) and must be pure functions
// of the declaring package's source: a fact that varied between runs
// would flip its dependents' diagnostics between runs.
type Fact interface {
	// AFact is a marker method; it has no behavior. Implementing it
	// states the type is intended to cross the package boundary.
	AFact()
}

// factName returns the stable key name of a fact type.
func factName(f Fact) string {
	t := fmt.Sprintf("%T", f)
	// Strip the package qualifier and any pointer marker: the analyzer
	// name already namespaces the fact, and "lint.closeFact" vs
	// "*lint.closeFact" must name the same fact.
	t = strings.TrimPrefix(t, "*")
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		t = t[i+1:]
	}
	return t
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

// A FactSet holds the facts of one package, keyed by analyzer, object
// path and fact type. The driver hands a finished set to the package's
// dependents in memory. Values live as raw JSON, so the set needs no
// knowledge of the concrete fact types and every lookup decodes a fresh
// copy that the importer cannot use to alter the exporter's fact.
type FactSet struct {
	// facts maps "analyzer\x00objpath\x00factname" -> serialized fact.
	facts map[string]json.RawMessage
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{facts: make(map[string]json.RawMessage)}
}

func factKey(analyzer, objPath, name string) string {
	return analyzer + "\x00" + objPath + "\x00" + name
}

// export records fact f about objPath on behalf of analyzer.
func (s *FactSet) export(analyzer, objPath string, f Fact) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("analysis: marshal fact %s for %s: %w", factName(f), objPath, err)
	}
	s.facts[factKey(analyzer, objPath, factName(f))] = data
	return nil
}

// lookup decodes the fact stored for (analyzer, objPath, type of f)
// into f, reporting whether one existed.
func (s *FactSet) lookup(analyzer, objPath string, f Fact) bool {
	if s == nil || objPath == "" {
		return false
	}
	raw, ok := s.facts[factKey(analyzer, objPath, factName(f))]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, f) == nil
}
