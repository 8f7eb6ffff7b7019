package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

type testFact struct {
	Releases bool
	Param    int
	Callee   string
}

func (testFact) AFact() {}

// TestImportedFactIsACopy checks the property the fact store owes its
// importers: changing a looked-up fact, in the exporting package's own
// pass or in a dependent's, leaves the exporter's fact as exported.
func TestImportedFactIsACopy(t *testing.T) {
	dep := types.NewPackage("m/dep", "dep")
	fn := types.NewFunc(token.NoPos, dep, "Close", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	dep.Scope().Insert(fn)
	a := &Analyzer{Name: "a"}

	exporter := &Pass{Analyzer: a, Pkg: dep, Facts: NewFactSet()}
	want := testFact{Releases: true, Param: 2, Callee: "CloseCtx"}
	ExportFact(exporter, fn, want)

	importer := &Pass{
		Analyzer: a,
		Pkg:      types.NewPackage("m/main", "main"),
		Facts:    NewFactSet(),
		DepFacts: func(path string) *FactSet {
			if path == dep.Path() {
				return exporter.Facts
			}
			return nil
		},
	}
	for _, p := range []*Pass{exporter, importer} {
		got, ok := ImportFact[testFact](p, fn)
		if !ok || got != want {
			t.Fatalf("ImportFact = %+v, %v; want %+v", got, ok, want)
		}
		got.Releases, got.Param, got.Callee = false, 7, "Other"
		if again, _ := ImportFact[testFact](p, fn); again != want {
			t.Fatalf("after changing a looked-up copy, the stored fact is %+v; want %+v", again, want)
		}
	}

	// Another analyzer's facts are its own.
	other := &Pass{Analyzer: &Analyzer{Name: "b"}, Pkg: dep, Facts: exporter.Facts}
	if f, ok := ImportFact[testFact](other, fn); ok {
		t.Fatalf("analyzer b imported analyzer a's fact %+v", f)
	}
}
