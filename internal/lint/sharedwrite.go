package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"crumbcruncher/internal/lint/analysis"
)

// SharedWrite is the determinism guard for the parallel stages: inside
// a parallel.ForEach* body every iteration runs concurrently, so the
// only sanctioned way to produce output is the merge discipline PR 1
// established — each iteration fills its own pre-sized slot
// (`out[i] = ...`, indexed by the body's index parameter) and a
// deterministic index-ordered reduce runs afterwards. Any other write
// to captured state (scalars, maps, fields, non-slot slice elements)
// races, and worse, merges in scheduler order: the byte-identical-
// output guarantee dies silently. The analyzer is interprocedural: a
// helper that mutates its arguments is summarized by a fact, so
// `agg.add(x)` inside a body is caught even when add lives in another
// package — while known concurrency-safe sinks (the sharded interner,
// telemetry's locked registries, sync/atomic) stay sanctioned.
var SharedWrite = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc: "report writes to captured shared state inside parallel.ForEach* " +
		"bodies that bypass the slot-per-index merge discipline",
	UsesFacts: true,
	Run:       runSharedWrite,
}

// sharedMutFact summarizes which of a function's pointer-like inputs
// (receiver, pointer/map/slice parameters) its body writes through,
// directly or transitively.
type sharedMutFact struct {
	MutatesRecv bool  `json:"mutates_recv,omitempty"`
	Mutates     []int `json:"mutates,omitempty"`
}

func (*sharedMutFact) AFact() {}

func (f *sharedMutFact) mutatesParam(i int) bool { return containsInt(f.Mutates, i) }
func (f *sharedMutFact) empty() bool             { return !f.MutatesRecv && len(f.Mutates) == 0 }

// sharedSafePkgs are packages whose types are concurrency-safe by
// design (internal locking, atomic operations) and deterministic to
// mutate from parallel bodies: mutating them is the sanctioned idiom,
// not a race.
var sharedSafePkgs = []string{"intern", "telemetry", "sync", "sync/atomic"}

func isSharedSafeType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	for _, s := range sharedSafePkgs {
		if pkgSuffixIs(named.Obj().Pkg().Path(), s) {
			return true
		}
	}
	return false
}

func runSharedWrite(pass *analysis.Pass) (interface{}, error) {
	computeMutFacts(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isParallelForEach(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkParallelBody(pass, lit)
				}
			}
			return true
		})
	}
	return nil, nil
}

// --- fact computation -------------------------------------------------------

// computeMutFacts exports sharedMutFact for every function that writes
// through its receiver or a pointer-like parameter, iterating to a
// fixpoint so indirection through same-package helpers is credited.
func computeMutFacts(pass *analysis.Pass) {
	if pass.Facts == nil {
		return
	}
	type fnDecl struct {
		decl *ast.FuncDecl
		fn   *types.Func
	}
	var fns []fnDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnDecl{fd, fn})
			}
		}
	}
	for round := 0; round < 16; round++ {
		changed := false
		for _, fd := range fns {
			f := mutSummary(pass, fd.decl, fd.fn)
			if f == nil || f.empty() {
				continue
			}
			prev := &sharedMutFact{}
			had := pass.ImportObjectFact(fd.fn, prev)
			if !had || prev.MutatesRecv != f.MutatesRecv || !equalInts(prev.Mutates, f.Mutates) {
				pass.ExportObjectFact(fd.fn, f)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// mutSummary computes one function's mutation summary.
func mutSummary(pass *analysis.Pass, fd *ast.FuncDecl, fn *types.Func) *sharedMutFact {
	// Collect the mutable inputs: object -> (-1 for receiver, else
	// parameter index).
	inputs := map[types.Object]int{}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if obj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]; obj != nil && isMutableKind(obj.Type()) {
			inputs[obj] = -1
		}
	}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for k := 0; k < n; k++ {
				if k < len(field.Names) {
					if obj := pass.TypesInfo.Defs[field.Names[k]]; obj != nil && isMutableKind(obj.Type()) {
						inputs[obj] = idx
					}
				}
				idx++
			}
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	out := &sharedMutFact{}
	record := func(obj types.Object) {
		i, ok := inputs[obj]
		if !ok {
			return
		}
		if i < 0 {
			out.MutatesRecv = true
		} else if !containsInt(out.Mutates, i) {
			out.Mutates = append(out.Mutates, i)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		scanMutations(pass, n, false, func(obj types.Object, _ ast.Node) {
			record(obj)
		})
		return true
	})
	sort.Ints(out.Mutates)
	return out
}

// isMutableKind reports whether writes through a value of type t are
// visible to the caller (pointer, map, slice).
func isMutableKind(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return true
	}
	return false
}

// scanMutations invokes report for every object that node n writes
// through: assignment/inc-dec targets rooted at the object, clear/
// delete builtins, and calls whose callee's fact mutates the
// corresponding input. bareWrites controls whether assigning the bare
// variable itself counts: for fact computation it does not (rebinding a
// parameter name is invisible to the caller), but inside a parallel
// body a closure assigns *through* the captured variable, so `total +=
// x` is exactly the shared write the analyzer exists to catch.
func scanMutations(pass *analysis.Pass, n ast.Node, bareWrites bool, report func(obj types.Object, site ast.Node)) {
	rooted := func(e ast.Expr) types.Object {
		if _, bare := unwrapExpr(e).(*ast.Ident); bare && !bareWrites {
			return nil // rebinding the name, not writing through it
		}
		return rootObject(pass, e)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if obj := rooted(l); obj != nil {
				report(obj, n)
			}
		}
	case *ast.IncDecStmt:
		if obj := rooted(n.X); obj != nil {
			report(obj, n)
		}
	case *ast.CallExpr:
		if id, ok := unwrapExpr(n.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				if (id.Name == "clear" || id.Name == "delete") && len(n.Args) > 0 {
					if obj := rootObject(pass, n.Args[0]); obj != nil {
						report(obj, n)
					}
				}
				return
			}
		}
		fn := staticCallee(pass.TypesInfo, n)
		if fn == nil {
			return
		}
		fact := &sharedMutFact{}
		if !pass.ImportObjectFact(fn, fact) {
			return
		}
		if fact.MutatesRecv {
			if sel, ok := unwrapExpr(n.Fun).(*ast.SelectorExpr); ok {
				if obj := rootObject(pass, sel.X); obj != nil {
					report(obj, n)
				}
			}
		}
		for i, a := range n.Args {
			if fact.mutatesParam(i) {
				if obj := rootObject(pass, a); obj != nil {
					report(obj, n)
				}
			}
		}
	}
}

// --- parallel-body checking -------------------------------------------------

// isParallelForEach matches calls to the parallel package's fan-out
// functions (ForEachTimedCtx, and whatever siblings grow later — any
// parallel.* function taking a body literal counts).
func isParallelForEach(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return pkgSuffixIs(fn.Pkg().Path(), "parallel")
}

// checkParallelBody verifies one fan-out body literal.
func checkParallelBody(pass *analysis.Pass, lit *ast.FuncLit) {
	indexParam := litIndexParam(pass, lit)

	capturedBy := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	// A write target is sanctioned when it is a slot store: an element
	// of a captured slice/array indexed exactly by the body's index
	// parameter (possibly through further sub-structure, like
	// parts[ci].field or out[i][k]).
	sanctionedSlot := func(e ast.Expr) bool {
		for {
			switch x := unwrapExpr(e).(type) {
			case *ast.IndexExpr:
				if id, ok := unwrapExpr(x.Index).(*ast.Ident); ok &&
					indexParam != nil && pass.TypesInfo.ObjectOf(id) == indexParam {
					if tv, ok := pass.TypesInfo.Types[x.X]; ok {
						switch tv.Type.Underlying().(type) {
						case *types.Slice, *types.Array, *types.Pointer:
							return true
						}
					}
				}
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return false
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		scanMutations(pass, n, true, func(obj types.Object, site ast.Node) {
			if !capturedBy(obj) {
				return
			}
			if isSharedSafeType(obj.Type()) {
				return
			}
			switch s := site.(type) {
			case *ast.AssignStmt:
				for _, l := range s.Lhs {
					if rootObject(pass, l) == obj && !sanctionedSlot(l) {
						pass.Reportf(l.Pos(),
							"write to captured %s inside a parallel body is not a "+
								"slot store indexed by the body's index parameter; "+
								"shared writes race and break deterministic merging", obj.Name())
					}
				}
			case *ast.IncDecStmt:
				if !sanctionedSlot(s.X) {
					pass.Reportf(s.Pos(),
						"write to captured %s inside a parallel body is not a "+
							"slot store indexed by the body's index parameter; "+
							"shared writes race and break deterministic merging", obj.Name())
				}
			case *ast.CallExpr:
				name := "a callee"
				if fn := staticCallee(pass.TypesInfo, s); fn != nil {
					name = fn.Name()
				} else if id, ok := unwrapExpr(s.Fun).(*ast.Ident); ok {
					name = id.Name
				}
				pass.Reportf(s.Pos(),
					"%s mutates captured %s inside a parallel body; shared "+
						"mutation races and breaks deterministic merging", name, obj.Name())
			}
		})
		return true
	})
}

// litIndexParam returns the object of the body literal's int index
// parameter (the `i` of func(i int)), or nil.
func litIndexParam(pass *analysis.Pass, lit *ast.FuncLit) types.Object {
	if lit.Type.Params == nil {
		return nil
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Kind() == types.Int {
				return obj
			}
		}
	}
	return nil
}
