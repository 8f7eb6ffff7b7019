package lint

import (
	"go/ast"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// Fsyncpolicy forbids raw durability primitives — (*os.File).Sync and
// os.Rename — outside internal/runstore, the package that owns the
// on-disk format. There the rule is one: appends never fsync, while
// LineFile.Sync, LineFile.Close and WriteFileAtomic (temp file, fsync,
// atomic rename) do. A bare Sync or Rename elsewhere bypasses the frame
// checksums, the sticky sync errors and the crash hooks, and reopens
// the half-rename window WriteFileAtomic exists to close.
var Fsyncpolicy = &analysis.Analyzer{
	Name: "fsyncpolicy",
	Doc: "forbid os.File.Sync / os.Rename outside internal/runstore\n\n" +
		"Durability goes through internal/runstore: LineFile.Sync/Close to\n" +
		"fsync a line file, WriteFileAtomic for atomic replacement. Raw\n" +
		"primitives bypass frame checksums, sync accounting and crash hooks.",
	Run: runFsyncpolicy,
}

// durabilityPkg reports whether path is the sanctioned durability layer.
func durabilityPkg(path string) bool {
	return path == "crumbcruncher/internal/runstore" || strings.HasSuffix(path, "/internal/runstore")
}

func runFsyncpolicy(pass *analysis.Pass) error {
	if durabilityPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Package-level: os.Rename.
			if path, name, ok := pkgFunc(pass.TypesInfo, sel); ok && path == "os" && name == "Rename" {
				pass.Report(analysis.Diagnostic{
					Pos: sel.Pos(),
					Message: "os.Rename outside internal/runstore: atomic replacement must go through " +
						"runstore.WriteFileAtomic so a crash never exposes a half-written artifact",
				})
				return true
			}
			// Method: (*os.File).Sync.
			if sel.Sel.Name == "Sync" {
				if named := receiverNamed(pass.TypesInfo, sel.X); named != nil &&
					named.Obj() != nil && named.Obj().Name() == "File" &&
					named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "os" {
					pass.Report(analysis.Diagnostic{
						Pos: sel.Pos(),
						Message: "os.File.Sync outside internal/runstore: fsync through " +
							"runstore.LineFile or runstore.WriteFileAtomic so sync failures are tracked and surfaced",
					})
				}
			}
			return true
		})
	}
	return nil
}
