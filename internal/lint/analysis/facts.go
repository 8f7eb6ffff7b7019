package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
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
// Facts must be JSON-serializable (they travel alongside export data in
// the driver's result cache) and must be pure functions of the declaring
// package's source: the driver keys its cache on the serialized fact
// set, so nondeterministic facts would defeat caching and, worse,
// flip diagnostics between runs.
type Fact interface {
	// AFact is a marker method; it has no behavior. Implementing it
	// states the type is intended to cross the package boundary.
	AFact()
}

// factName returns the stable wire name of a fact type.
func factName(f Fact) string {
	t := fmt.Sprintf("%T", f)
	// Strip the package qualifier and any pointer marker: the analyzer
	// name already namespaces the fact, and "lint.closeFact" vs
	// "*lint.closeFact" must not bifurcate the wire format.
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
// path and fact type. Values live as raw JSON so a set can be moved
// between processes (through the driver cache) without knowing the
// concrete fact types, and decoded lazily on import.
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

// Len returns the number of facts in the set.
func (s *FactSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.facts)
}

// wireFacts is the on-disk shape: a sorted map keyed by the printable
// form "analyzer/objpath/factname". encoding/json writes map keys in
// sorted order, so Encode is deterministic for a given fact set — the
// property the driver's cache keying relies on.
type wireFacts map[string]json.RawMessage

// wireKey converts the internal NUL-separated key to the on-disk form.
func wireKey(k string) string { return strings.ReplaceAll(k, "\x00", "/") }

// Encode serializes the set. The encoding is deterministic: equal sets
// produce equal bytes.
func (s *FactSet) Encode() ([]byte, error) {
	w := make(wireFacts, len(s.facts))
	for k, v := range s.facts {
		w[wireKey(k)] = v
	}
	return json.Marshal(w)
}

// DecodeFactSet reads a set produced by Encode. Empty input decodes to
// an empty set.
func DecodeFactSet(data []byte) (*FactSet, error) {
	s := NewFactSet()
	if len(data) == 0 {
		return s, nil
	}
	var w wireFacts
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("analysis: decode fact set: %w", err)
	}
	for k, v := range w {
		parts := strings.SplitN(k, "/", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("analysis: malformed fact key %q", k)
		}
		s.facts[factKey(parts[0], parts[1], parts[2])] = v
	}
	return s, nil
}

// Keys lists the set's printable keys in sorted order (for tests and
// debugging output).
func (s *FactSet) Keys() []string {
	out := make([]string, 0, len(s.facts))
	for k := range s.facts {
		out = append(out, wireKey(k))
	}
	sort.Strings(out)
	return out
}
