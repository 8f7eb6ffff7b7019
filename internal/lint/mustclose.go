package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// MustClose reports resource handles that are acquired but not closed
// on every path out of the acquiring function: runstore Stores and
// Cursors, runstore line files, and gzip segment readers. It is built on
// the acquire/release engine (acqrel.go) and is interprocedural: when a
// handle is passed to another function, a disposition fact exported by
// that function's package decides whether the callee closed it,
// retained it, or merely borrowed it — so a leak hidden behind a helper
// call in another package is still caught, and a helper that does close
// its argument does not produce a false positive at the call site.
var MustClose = &analysis.Analyzer{
	Name: "mustclose",
	Doc: "report run-store handles, cursors, line files and gzip readers " +
		"that are not closed on every path, including error paths",
	UsesFacts: true,
	Run: func(pass *analysis.Pass) error {
		runAcqRel(pass, engineConfig{
			classes:   mustCloseClasses,
			skipTests: true,
		})
		return nil
	},
}

// mustCloseClasses are the resource kinds mustclose enforces. Each is a
// closable: released by a Close() call, borrowed by arbitrary method
// calls and field reads.
var mustCloseClasses = buildMustCloseClasses()

func buildMustCloseClasses() []*resourceClass {
	store := closableClass("run store", false, func(t types.Type) bool {
		return namedFrom(t, "runstore", "Store")
	})
	// Cursors are produced by methods (st.Iter()), so method calls are
	// sources too.
	cursor := closableClass("cursor", true, func(t types.Type) bool {
		return namedFrom(t, "runstore", "Cursor")
	})
	lineFile := closableClass("line file", false, func(t types.Type) bool {
		return namedFrom(t, "runstore", "LineFile")
	})
	gz := closableClass("gzip reader", false, func(t types.Type) bool {
		return namedFrom(t, "compress/gzip", "Reader")
	})
	// Helpers typed against the io interfaces still earn dispositions
	// ("does this helper close the reader I hand it?"), but a call
	// returning a bare io.Reader is not an acquisition.
	gz.factParam = func(t types.Type) bool {
		return namedFrom(t, "compress/gzip", "Reader") || readerInterface(t)
	}
	return []*resourceClass{store, cursor, lineFile, gz}
}

// closableClass builds a Close-released resource class. methodSources
// additionally accepts method calls (accessor-free APIs like Iter) as
// acquisitions; otherwise only package-level constructor calls count,
// so borrowed handles returned by accessors are not misread as fresh.
func closableClass(noun string, methodSources bool, match func(types.Type) bool) *resourceClass {
	return &resourceClass{
		noun: noun,
		sourceResults: func(pass *analysis.Pass, call *ast.CallExpr) []int {
			if !methodSources && !isPkgLevelCall(pass, call) {
				return nil
			}
			if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
				return nil // conversion, not an acquisition
			}
			return typeResults(pass, call, match)
		},
		releaseMethods: map[string]bool{"Close": true},
		borrow:         true,
		factParam:      match,
		msgDiscard: fmt.Sprintf("%s discarded; Close will never run and the %s leaks",
			noun, noun),
		msgLeakReturn: func(name string, acq string) string {
			return fmt.Sprintf("%s %s acquired at %s is not closed on this return path",
				noun, name, acq)
		},
		msgLeakEnd: func(name string) string {
			return fmt.Sprintf("%s %s is not closed before the function returns; "+
				"add defer %s.Close() or close it on every path", noun, name, name)
		},
		msgReassign: func(name string, acq string) string {
			return fmt.Sprintf("%s %s reassigned before Close; the %s acquired at %s is lost",
				noun, name, noun, acq)
		},
		msgOverwrite: func(name string, acq string) string {
			return fmt.Sprintf("%s %s overwritten before Close; the %s acquired at %s is lost",
				noun, name, noun, acq)
		},
	}
}

// readerInterface matches the io reader/closer interfaces, so the gzip
// class can export dispositions for helpers that take their reader as
// io.Reader ("does this helper close what I hand it?").
func readerInterface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "io" {
		return false
	}
	switch obj.Name() {
	case "Reader", "ReadCloser", "Closer":
		return true
	}
	return false
}

// namedFrom reports whether t is (a pointer to) the named type
// pkgSuffix.name, where pkgSuffix matches the import path exactly or as
// a trailing "/pkgSuffix" segment — the same convention telemetryPkg
// uses, so fixture packages under testdata ("mustclose/internal/
// runstore") resolve like the real tree.
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return pkgSuffixIs(obj.Pkg().Path(), pkgSuffix)
}

// pkgSuffixIs reports whether path is suffix or ends in "/suffix".
func pkgSuffixIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// typeResults reports the result indices of call whose static type
// matches match (tuple-aware: `st, err := Open(p)` yields [0]).
func typeResults(pass *analysis.Pass, call *ast.CallExpr, match func(types.Type) bool) []int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		var ks []int
		for i := 0; i < tup.Len(); i++ {
			if match(tup.At(i).Type()) {
				ks = append(ks, i)
			}
		}
		return ks
	}
	if match(tv.Type) {
		return []int{0}
	}
	return nil
}

// isPkgLevelCall reports whether call invokes a package-level function
// (same-package `open(...)` or imported `runstore.Open(...)`), as
// opposed to a method on a value — the shape constructors take.
func isPkgLevelCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := unwrapExpr(call.Fun).(type) {
	case *ast.Ident:
		fn, ok := pass.TypesInfo.Uses[fun].(*types.Func)
		if !ok {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() == nil
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				return true
			}
		}
	}
	return false
}
