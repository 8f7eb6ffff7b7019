package lint

import (
	"go/ast"
	"strings"

	"crumbcruncher/internal/lint/analysis"
)

// Fsyncpolicy forbids raw durability primitives — (*os.File).Sync and
// os.Rename — outside internal/runio. PR 8 routed all crash safety
// through the framed layer: fsync cadence is a policy decision
// (runio.SyncPolicy), atomic replacement is runio.WriteFileAtomic, and
// a bare Sync or Rename elsewhere reopens exactly the torn-write and
// half-rename windows the frame format exists to close.
var Fsyncpolicy = &analysis.Analyzer{
	Name: "fsyncpolicy",
	Doc: "forbid os.File.Sync / os.Rename outside internal/runio\n\n" +
		"Durability goes through the framed runio layer: SyncPolicy for fsync\n" +
		"cadence, WriteFileAtomic for atomic replacement. Raw primitives\n" +
		"bypass frame checksums, sync accounting and quarantine handling.",
	Run: runFsyncpolicy,
}

// runioPkg reports whether path is the sanctioned durability layer.
func runioPkg(path string) bool {
	return path == "crumbcruncher/internal/runio" || strings.HasSuffix(path, "/internal/runio")
}

func runFsyncpolicy(pass *analysis.Pass) (interface{}, error) {
	if runioPkg(pass.Pkg.Path()) {
		return nil, nil
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
					Message: "os.Rename outside internal/runio: atomic replacement must go through " +
						"runio.WriteFileAtomic (or runio.ReplaceLineFile) so a crash never exposes a half-written artifact",
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
						Message: "os.File.Sync outside internal/runio: fsync cadence is a runio.SyncPolicy decision; " +
							"write through runio.LineFile or runio.WriteFileAtomic so sync failures are tracked and surfaced",
					})
				}
			}
			return true
		})
	}
	return nil, nil
}
