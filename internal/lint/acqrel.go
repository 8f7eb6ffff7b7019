package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"

	"crumbcruncher/internal/lint/analysis"
)

// This file is the reusable core behind the resource-discipline
// analyzers (spanend, mustclose, poolreset): a table-driven
// acquire/release dataflow engine. A resourceClass describes one kind
// of resource — how it is acquired, which calls release it, what the
// diagnostics should say — and the engine supplies the shared
// machinery: a conservative branch-merging walk over each function
// body (no full CFG), escape analysis that transfers ownership out of
// the function, deferred-release handling, error-path pruning for the
// `v, err := Acquire(); if err != nil { return }` idiom, and — the
// interprocedural part — per-function *disposition facts* exported
// across package boundaries, so a caller-side pass knows that a callee
// closes (or retains) the resource it is handed.
//
// States merge at branch joins pessimistically (any falling path that
// still holds a live resource keeps the obligation alive), loops merge
// entry with body-exit, and break/continue/goto give up on the path
// conservatively.

// effect says what passing a tracked value to a call does to the
// caller's obligation.
type effect int

const (
	// effTransfer: ownership moves somewhere this engine cannot see
	// (unknown callee, field store, return). Tracking stops, silently.
	effTransfer effect = iota
	// effRelease: the call releases the value; the obligation is met.
	effRelease
	// effKeep: the callee borrows the value (a fact proves it neither
	// releases nor retains it). The caller's obligation stands.
	effKeep
)

// resourceClass describes one acquire/release discipline.
type resourceClass struct {
	// noun names the resource in prose ("span", "run-store cursor").
	noun string

	// sourceResults reports which result indices of call produce a
	// freshly acquired resource of this class (nil: call is no source).
	sourceResults func(pass *analysis.Pass, call *ast.CallExpr) []int

	// releaseMethods are method names on the tracked value that release
	// it ("Close", "End", "EndErr", "Release").
	releaseMethods map[string]bool

	// chainMethods return their receiver (telemetry's Attr), so both
	// sources and releases see through them.
	chainMethods map[string]bool

	// borrow: method calls and field reads on the tracked value that
	// are not releases leave it tracked, as do uses that cannot move
	// it (builtin and conversion arguments, indexing, ranging,
	// comparisons). false: any use other than a release or chain
	// method call, a reassignment or a deferred-closure capture
	// transfers ownership.
	borrow bool

	// releaseArg reports an intrinsic argument-position release — e.g.
	// sync.Pool.Put(v) releases v — independent of facts.
	releaseArg func(pass *analysis.Pass, call *ast.CallExpr, argIdx int) bool

	// factParam reports whether a parameter of type t may carry a
	// disposition fact for this class (nil: the class exports no
	// facts). Only meaningful when the analyzer sets UsesFacts.
	factParam func(t types.Type) bool

	// Diagnostics. msgDiscard is reported when a source call's result
	// is dropped (`_ =` or bare expression statement); the rest follow
	// spanend's vocabulary.
	// The acq argument is the acquire site as acqSite prints it.
	msgDiscard    string
	msgLeakReturn func(name string, acq string) string
	msgLeakEnd    func(name string) string
	msgReassign   func(name string, acq string) string
	msgOverwrite  func(name string, acq string) string
}

// acqSite prints an acquire site as file base name and line. A finding
// already carries its own full position; the site in its message is
// for the reader, and a full path would tie the message's text to
// where the tree is checked out.
func acqSite(pos token.Position) string {
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}

// dispFact is the disposition summary the engine exports per function:
// which resource-bearing parameters the function releases on every
// path out of it, and which it retains (stores, returns, or hands to
// something unknown — either way the caller's obligation is gone).
// A parameter in neither set was analyzed and proved to do neither,
// so the caller keeps its obligation — the fact that makes the
// cross-package leak reports sound rather than guesses.
type dispFact struct {
	ReleasesRecv, RetainsRecv bool
	Releases, Retains         paramSet
}

func (dispFact) AFact() {}

// paramSet is a set of parameter indices, a plain value so that a fact
// holding one copies whole. Indices past 63 are never members; no
// function in the module comes close.
type paramSet uint64

func (s paramSet) has(i int) bool { return i >= 0 && i < 64 && s&(1<<i) != 0 }

func (s *paramSet) add(i int) {
	if i >= 0 && i < 64 {
		*s |= 1 << i
	}
}

// engineConfig configures one analyzer's run over the engine.
type engineConfig struct {
	classes   []*resourceClass
	skipTests bool
}

// engine is the per-pass state.
type engine struct {
	pass *analysis.Pass
	cfg  engineConfig
}

// runAcqRel is the Run body shared by the engine-backed analyzers.
func runAcqRel(pass *analysis.Pass, cfg engineConfig) {
	e := &engine{pass: pass, cfg: cfg}
	exportFixpoint(pass, e.disposition)
	for _, f := range pass.Files {
		if cfg.skipTests && isTestFile(pass, f) {
			continue
		}
		for _, body := range functionBodies(f) {
			e.checkBody(body)
		}
	}
}

// functionBodies lists every function body in the file: declarations
// and literals, each analyzed as its own scope.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

// --- fact computation -------------------------------------------------------

// exportFixpoint exports summarize's fact for every function declared
// in the pass's package, re-running until no fact changes, so that a
// fact earned through same-package callees (f closes its argument by
// passing it to g, which closes it) is credited across any call depth.
// Cross-package callees resolve through imported facts, which are
// stable inputs. The fixpoint converges because facts only strengthen
// as they accumulate; the round cap is a safety net, not a tuning knob.
func exportFixpoint[F interface {
	analysis.Fact
	comparable
}](pass *analysis.Pass, summarize func(*ast.FuncDecl, *types.Func) (F, bool)) {
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
			f, ok := summarize(fd.decl, fd.fn)
			if !ok {
				continue
			}
			if prev, had := analysis.ImportFact[F](pass, fd.fn); !had || prev != f {
				analysis.ExportFact(pass, fd.fn, f)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// disposition computes one function's dispFact; ok is false when no
// receiver/parameter is fact-worthy for any class.
func (e *engine) disposition(fd *ast.FuncDecl, fn *types.Func) (d dispFact, ok bool) {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig {
		return d, false
	}

	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if class := e.classForParam(sig.Recv().Type()); class != nil {
			ok = true
			obj := e.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
			switch e.paramOutcome(fd.Body, obj, class) {
			case outRelease:
				d.ReleasesRecv = true
			case outRetain:
				d.RetainsRecv = true
			}
		}
	}

	// Walk the declared parameter fields in order to pair AST names
	// with signature indices.
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1 // unnamed parameter occupies one slot
			}
			for k := 0; k < n; k++ {
				if idx >= sig.Params().Len() {
					break
				}
				pv := sig.Params().At(idx)
				class := e.classForParam(pv.Type())
				if class != nil {
					ok = true
					if k < len(field.Names) {
						obj := e.pass.TypesInfo.Defs[field.Names[k]]
						switch e.paramOutcome(fd.Body, obj, class) {
						case outRelease:
							d.Releases.add(idx)
						case outRetain:
							d.Retains.add(idx)
						}
					}
					// An unnamed fact-worthy parameter is ignored by
					// the body: neither released nor retained.
				}
				idx++
			}
		}
	}
	return d, ok
}

// classForParam returns the first class that claims t as fact-worthy.
func (e *engine) classForParam(t types.Type) *resourceClass {
	for _, c := range e.cfg.classes {
		if c.factParam != nil && c.factParam(t) {
			return c
		}
	}
	return nil
}

type outcome int

const (
	outNone outcome = iota
	outRelease
	outRetain
)

// paramOutcome classifies what a function body does with one incoming
// resource-bearing object (parameter or receiver).
func (e *engine) paramOutcome(body *ast.BlockStmt, obj types.Object, class *resourceClass) outcome {
	if obj == nil {
		return outNone
	}
	parents := parentMap(body)
	if e.escapes(body, obj, class, parents) {
		return outRetain
	}
	w := &acqWalker{eng: e, class: class, obj: obj, silent: true}
	st, terminated := w.walk(body.List, acqState{active: true, acqPos: obj.Pos()})
	fellActive := !terminated && st.active && !st.closureDef
	if w.leaked || fellActive {
		if w.released {
			// Released on some paths, leaked on others: the caller can
			// neither trust a release nor keep its obligation (a second
			// close could double-release). Treat as a transfer.
			return outRetain
		}
		return outNone
	}
	if w.released {
		return outRelease
	}
	return outNone
}

// --- diagnostics ------------------------------------------------------------

// checkBody analyzes one function body: finds resource acquisitions
// directly inside it (nested function literals are their own scopes)
// and verifies each named handle is released on all paths.
func (e *engine) checkBody(body *ast.BlockStmt) {
	type trackedVar struct {
		obj   types.Object
		class *resourceClass
	}
	var vars []trackedVar
	seen := map[types.Object]bool{}
	note := func(id *ast.Ident, class *resourceClass) {
		obj := e.pass.TypesInfo.ObjectOf(id)
		if obj != nil && !seen[obj] {
			seen[obj] = true
			vars = append(vars, trackedVar{obj, class})
		}
	}
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			e.eachAcquire(n.Lhs, n.Rhs, func(lhs ast.Expr, class *resourceClass, src ast.Expr) {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					return // field/index targets: ownership escapes
				}
				if id.Name == "_" {
					e.pass.Reportf(src.Pos(), "%s", class.msgDiscard)
					return
				}
				note(id, class)
			})
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				e.eachAcquire(lhs, vs.Values, func(l ast.Expr, class *resourceClass, src ast.Expr) {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
						note(id, class)
					}
				})
			}
		case *ast.ExprStmt:
			if class := e.sourceClass(n.X); class != nil {
				e.pass.Reportf(n.X.Pos(), "%s", class.msgDiscard)
			}
		}
	})

	if len(vars) == 0 {
		return
	}
	parents := parentMap(body)
	for _, tv := range vars {
		if e.escapes(body, tv.obj, tv.class, parents) {
			continue
		}
		w := &acqWalker{eng: e, class: tv.class, obj: tv.obj}
		st, terminated := w.walk(body.List, acqState{})
		if !terminated && st.active && !st.closureDef {
			e.pass.Reportf(st.acqPos, "%s", tv.class.msgLeakEnd(tv.obj.Name()))
		}
	}
}

// inspectShallow walks the body without descending into nested function
// literals.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// parentMap records each node's parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// eachAcquire matches resource acquisitions in an assignment shape,
// including the two-valued `v, err := Acquire()` form, and invokes fn
// with the receiving expression, the class, and the source expression.
func (e *engine) eachAcquire(lhs, rhs []ast.Expr, fn func(l ast.Expr, class *resourceClass, src ast.Expr)) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Tuple assignment from a multi-result call.
		call, ok := unwrapExpr(rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, c := range e.cfg.classes {
			if c.sourceResults == nil {
				continue
			}
			for _, k := range c.sourceResults(e.pass, call) {
				if k < len(lhs) {
					fn(lhs[k], c, rhs[0])
				}
			}
		}
		return
	}
	for i, r := range rhs {
		if i >= len(lhs) {
			break
		}
		if class := e.sourceClass(r); class != nil {
			fn(lhs[i], class, r)
		}
	}
}

// sourceClass reports the class for which expression r (unwrapped of
// parens and type assertions) is a single-value resource source.
func (e *engine) sourceClass(r ast.Expr) *resourceClass {
	call, ok := unwrapExpr(r).(*ast.CallExpr)
	if !ok {
		return nil
	}
	for _, c := range e.cfg.classes {
		if c.sourceResults == nil {
			continue
		}
		if ks := c.sourceResults(e.pass, call); len(ks) == 1 && ks[0] == 0 {
			return c
		}
	}
	return nil
}

// unwrapExpr strips parens and type assertions: `pool.Get().(T)` is
// still the Get call for source matching.
func unwrapExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			if x.Type == nil {
				return e // x.(type) in a type switch
			}
			e = x.X
		default:
			return e
		}
	}
}

// --- escape analysis --------------------------------------------------------

// escapes reports whether the handle's ownership leaves the function
// through a use the walker cannot model: aliasing, address-taking,
// capture by a non-deferred closure, a return, or a call that (per
// facts) retains it or that the engine knows nothing about.
func (e *engine) escapes(body *ast.BlockStmt, obj types.Object, class *resourceClass, parents map[ast.Node]ast.Node) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if e.pass.TypesInfo.Uses[id] != obj && e.pass.TypesInfo.Defs[id] != obj {
			return true
		}
		// Crossing into a function literal is fine only for the
		// canonical deferred-cleanup closure.
		for p := parents[ast.Node(id)]; p != nil; p = parents[p] {
			fl, ok := p.(*ast.FuncLit)
			if !ok {
				continue
			}
			call, ok := parents[fl].(*ast.CallExpr)
			if !ok || call.Fun != ast.Expr(fl) {
				escapes = true
				return false
			}
			if _, ok := parents[ast.Node(call)].(*ast.DeferStmt); !ok {
				escapes = true
				return false
			}
		}
		switch p := parents[ast.Node(id)].(type) {
		case *ast.SelectorExpr:
			if p.X != ast.Expr(id) {
				escapes = true
				return false
			}
			if class.releaseMethods[p.Sel.Name] || class.chainMethods[p.Sel.Name] {
				if call, ok := parents[ast.Node(p)].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
					return true
				}
			}
			if class.borrow {
				// Field reads and arbitrary method calls borrow the
				// value; a method that (per fact) retains its receiver
				// transfers ownership instead.
				if call, ok := parents[ast.Node(p)].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
					if d, fok := e.methodFact(p); fok && d.RetainsRecv {
						escapes = true
						return false
					}
				}
				return true
			}
			escapes = true
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == ast.Expr(id) {
					return true
				}
			}
			escapes = true
		case *ast.ValueSpec:
			for _, name := range p.Names {
				if name == id {
					return true
				}
			}
			escapes = true
		case *ast.CallExpr:
			// The handle is an argument. Facts (and intrinsic releases
			// like Pool.Put) decide whether the callee releases it,
			// borrows it, or takes it away.
			if p.Fun == ast.Expr(id) {
				escapes = true // calling the handle itself
				return false
			}
			switch e.argEffect(class, p, argIndex(p, id)) {
			case effTransfer:
				escapes = true
			case effKeep:
				escapes = !class.borrow
			}
		case *ast.IndexExpr, *ast.RangeStmt, *ast.BinaryExpr:
			// Element reads/writes (m[k], s[i]), using the handle as a
			// key, iterating its elements and comparisons (v == nil)
			// borrow it.
			escapes = !class.borrow
		default:
			escapes = true
		}
		return !escapes
	})
	return escapes
}

// argIndex returns id's argument position in call, or -1.
func argIndex(call *ast.CallExpr, id *ast.Ident) int {
	for i, a := range call.Args {
		if a == ast.Expr(id) {
			return i
		}
	}
	return -1
}

// methodFact resolves the disposition fact of the method named by sel,
// when sel is a method call selector on the tracked value.
func (e *engine) methodFact(sel *ast.SelectorExpr) (dispFact, bool) {
	fn, ok := e.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return dispFact{}, false
	}
	return analysis.ImportFact[dispFact](e.pass, fn)
}

// argEffect decides what passing the tracked value at argIdx of call
// does to the obligation.
func (e *engine) argEffect(class *resourceClass, call *ast.CallExpr, argIdx int) effect {
	if argIdx < 0 {
		return effTransfer
	}
	if class.releaseArg != nil && class.releaseArg(e.pass, call, argIdx) {
		return effRelease
	}
	// Builtins (clear, delete, copy, append, len, print...) never take
	// ownership.
	if id, ok := unwrapExpr(call.Fun).(*ast.Ident); ok {
		if _, ok := e.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return effKeep
		}
	}
	// Conversions are not calls.
	if tv, ok := e.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return effKeep
	}
	fn := staticCallee(e.pass.TypesInfo, call)
	if fn != nil && engineBorrowFuncs[fn.FullName()] {
		return effKeep
	}
	if fn == nil {
		return effTransfer
	}
	// Map the argument position onto the callee's parameters. A
	// resource passed through a variadic tail is handed to unknown
	// machinery: transfer.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || (sig.Variadic() && argIdx >= sig.Params().Len()-1) {
		return effTransfer
	}
	if d, ok := analysis.ImportFact[dispFact](e.pass, fn); ok {
		switch {
		case d.Releases.has(argIdx):
			return effRelease
		case d.Retains.has(argIdx):
			return effTransfer
		default:
			return effKeep
		}
	}
	// No fact. If the callee's package was analyzed, the parameter was
	// simply not fact-worthy (an untracked type): be conservative and
	// transfer. Same for unanalyzed packages (stdlib, other modules).
	return effTransfer
}

// engineBorrowFuncs are callees outside the fact domain (the standard
// library carries no facts) that by contract borrow their resource
// arguments: they neither close nor retain them. Without this table
// every `io.ReadAll(gz)` would conservatively end tracking and hide the
// missing gz.Close() downstream.
var engineBorrowFuncs = map[string]bool{
	"io.ReadAll":  true,
	"io.Copy":     true,
	"io.CopyN":    true,
	"io.ReadFull": true,
}

// staticCallee resolves call to a statically-known function or method
// object, or nil (func values, interface-typed variables holding
// closures, builtins).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unwrapExpr(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// --- the branch-merging walker ---------------------------------------------

// acqState is the walker's per-path state for one handle variable.
type acqState struct {
	active     bool         // variable holds a resource that still needs release
	closureDef bool         // a deferred closure releases the variable's final value
	acqPos     token.Pos    // most recent acquisition, for reporting
	errObj     types.Object // error paired with the acquisition, for err-guard pruning
}

// acqWalker performs the branch-merging statement walk for one handle.
type acqWalker struct {
	eng   *engine
	class *resourceClass
	obj   types.Object

	silent   bool // fact mode: record outcomes, report nothing
	released bool // a release event occurred somewhere
	leaked   bool // a report would have fired (fact mode)
}

func (w *acqWalker) report(pos token.Pos, msg string) {
	w.leaked = true
	if !w.silent {
		w.eng.pass.Reportf(pos, "%s", msg)
	}
}

// walk executes stmts from state st. terminated means control cannot
// fall past the list.
func (w *acqWalker) walk(stmts []ast.Stmt, st acqState) (acqState, bool) {
	for _, s := range stmts {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

// scanRelease looks for a release of the tracked value anywhere in the
// expression (skipping nested function literals) and updates st.
func (w *acqWalker) scanRelease(e ast.Expr, st acqState) acqState {
	if e == nil {
		return st
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && w.isReleaseCall(call) {
			found = true
		}
		return !found
	})
	if found {
		w.released = true
		st.active = false
	}
	return st
}

// stmt executes one statement.
func (w *acqWalker) stmt(s ast.Stmt, st acqState) (acqState, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return w.assign(s, st), false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				st = w.assignShape(lhs, vs.Values, token.DEFINE, st)
			}
		}
		return st, false

	case *ast.ExprStmt:
		st = w.scanRelease(s.X, st)
		if isTerminalCall(w.eng.pass.TypesInfo, s.X) {
			return st, true
		}
		return st, false

	case *ast.SendStmt:
		st = w.scanRelease(s.Chan, st)
		return w.scanRelease(s.Value, st), false

	case *ast.IncDecStmt:
		return w.scanRelease(s.X, st), false

	case *ast.DeferStmt:
		if w.isReleaseCall(s.Call) {
			// defer v.Close() / defer pool.Put(v): releases the value
			// the variable holds right now.
			w.released = true
			st.active = false
			return st, false
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok && w.closureReleases(fl) {
			w.released = true
			st.active = false
			st.closureDef = true
		}
		return st, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.scanRelease(r, st)
		}
		if st.active && !st.closureDef {
			w.report(s.Pos(), w.class.msgLeakReturn(w.obj.Name(), acqSite(w.eng.pass.Fset.Position(st.acqPos))))
		}
		return st, true

	case *ast.BranchStmt:
		// break/continue/goto: give up on this path conservatively.
		return st, true

	case *ast.BlockStmt:
		return w.walk(s.List, st)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st = w.scanRelease(s.Cond, st)
		thenEntry, elseEntry := st, st
		if st.active && st.errObj != nil {
			// `v, err := Acquire(); if err != nil { ... }`: on the
			// branch where err is non-nil the acquisition failed, so
			// there is nothing to release there.
			switch errCond(w.eng.pass.TypesInfo, s.Cond, st.errObj) {
			case condErrNonNil:
				thenEntry.active = false
			case condErrNil:
				elseEntry.active = false
			}
		}
		thenSt, thenTerm := w.walk(s.Body.List, thenEntry)
		elseSt, elseTerm := elseEntry, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, elseEntry)
		}
		return mergeAcqPaths([]acqPath{{thenSt, thenTerm}, {elseSt, elseTerm}})

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st = w.scanRelease(s.Cond, st)
		bodySt, _ := w.walk(s.Body.List, st)
		// The body may run zero times; merge entry and body-exit.
		return mergeAcqPaths([]acqPath{{st, false}, {bodySt, false}})

	case *ast.RangeStmt:
		st = w.scanRelease(s.X, st)
		bodySt, _ := w.walk(s.Body.List, st)
		return mergeAcqPaths([]acqPath{{st, false}, {bodySt, false}})

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.switchLike(s, st)

	case *ast.GoStmt:
		return st, false

	default:
		return st, false
	}
}

// assign processes acquisitions and overwrites of the handle.
func (w *acqWalker) assign(s *ast.AssignStmt, st acqState) acqState {
	for _, r := range s.Rhs {
		st = w.scanRelease(r, st)
	}
	return w.assignShape(s.Lhs, s.Rhs, s.Tok, st)
}

// assignShape handles both AssignStmt and ValueSpec forms.
func (w *acqWalker) assignShape(lhs, rhs []ast.Expr, _ token.Token, st acqState) acqState {
	// Tuple acquisition: v, err := Acquire().
	if len(rhs) == 1 && len(lhs) > 1 && w.class.sourceResults != nil {
		if call, ok := unwrapExpr(rhs[0]).(*ast.CallExpr); ok {
			if ks := w.class.sourceResults(w.eng.pass, call); len(ks) > 0 {
				for _, k := range ks {
					if k >= len(lhs) {
						continue
					}
					id, ok := lhs[k].(*ast.Ident)
					if !ok || !w.isObj(id) {
						continue
					}
					st = w.acquire(st, rhs[0].Pos())
					st.errObj = pairedError(w.eng.pass.TypesInfo, lhs, k)
				}
				// The paired error variable was just (re)assigned by
				// the acquiring call itself; fall through to the
				// invalidation scan is not wanted here.
				return st
			}
		}
	}
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		if w.isObj(id) {
			if i < len(rhs) && len(lhs) == len(rhs) && w.isSourceExpr(rhs[i]) {
				st = w.acquire(st, rhs[i].Pos())
				st.errObj = nil
			} else if st.active && !st.closureDef {
				w.report(l.Pos(), w.class.msgOverwrite(w.obj.Name(), acqSite(w.eng.pass.Fset.Position(st.acqPos))))
				st.active = false
			}
			continue
		}
		// Reassigning the paired error variable unpairs it: its value
		// no longer says anything about whether the resource exists.
		if st.errObj != nil && w.eng.pass.TypesInfo.ObjectOf(id) == st.errObj {
			st.errObj = nil
		}
	}
	return st
}

// isSourceExpr reports whether r acquires a resource of the walker's
// class as a single value.
func (w *acqWalker) isSourceExpr(r ast.Expr) bool {
	call, ok := unwrapExpr(r).(*ast.CallExpr)
	if !ok || w.class.sourceResults == nil {
		return false
	}
	ks := w.class.sourceResults(w.eng.pass, call)
	return len(ks) == 1 && ks[0] == 0
}

// acquire transitions the variable to holding a fresh resource.
func (w *acqWalker) acquire(st acqState, pos token.Pos) acqState {
	if st.closureDef {
		// The deferred closure releases whatever the variable holds
		// last.
		return st
	}
	if st.active {
		w.report(pos, w.class.msgReassign(w.obj.Name(), acqSite(w.eng.pass.Fset.Position(st.acqPos))))
	}
	st.active = true
	st.acqPos = pos
	st.errObj = nil
	return st
}

// switchLike merges all clause bodies of a switch/type-switch/select.
func (w *acqWalker) switchLike(s ast.Stmt, st acqState) (acqState, bool) {
	var init ast.Stmt
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, body = s.Init, s.Body
		if s.Tag != nil {
			st = w.scanRelease(s.Tag, st)
		}
	case *ast.TypeSwitchStmt:
		init, body = s.Init, s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	if init != nil {
		st, _ = w.stmt(init, st)
	}
	var paths []acqPath
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = c.Body
			if c.Comm == nil {
				hasDefault = true
			}
		}
		cs, ct := w.walk(stmts, st)
		paths = append(paths, acqPath{cs, ct})
	}
	if !hasDefault || len(paths) == 0 {
		// Control may skip every clause (or block forever; be lenient).
		paths = append(paths, acqPath{st, false})
	}
	return mergeAcqPaths(paths)
}

// isObj reports whether the identifier denotes the tracked variable.
func (w *acqWalker) isObj(id *ast.Ident) bool {
	return w.eng.pass.TypesInfo.Uses[id] == w.obj || w.eng.pass.TypesInfo.Defs[id] == w.obj
}

// isReleaseCall matches any call that releases the tracked variable's
// current value: a release method on it (through chain methods), an
// intrinsic or fact-proven releasing argument position, or a method
// whose fact says it releases its receiver.
func (w *acqWalker) isReleaseCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && call.Fun == ast.Expr(sel) {
		if w.class.releaseMethods[sel.Sel.Name] && w.rootIsObj(sel.X) {
			return true
		}
		if w.class.borrow && w.rootIsObj(sel.X) {
			if d, ok := w.eng.methodFact(sel); ok && d.ReleasesRecv {
				return true
			}
		}
	}
	for i, a := range call.Args {
		id, ok := unwrapExpr(a).(*ast.Ident)
		if !ok || !w.isObj(id) {
			continue
		}
		if w.eng.argEffect(w.class, call, i) == effRelease {
			return true
		}
	}
	return false
}

// rootIsObj unwraps chain-method calls to the receiver variable.
func (w *acqWalker) rootIsObj(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return w.isObj(x)
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && w.class.chainMethods[sel.Sel.Name] {
			return w.rootIsObj(sel.X)
		}
	}
	return false
}

// closureReleases reports whether the deferred literal releases the
// variable.
func (w *acqWalker) closureReleases(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if e, ok := n.(*ast.CallExpr); ok && w.isReleaseCall(e) {
			found = true
		}
		return !found
	})
	return found
}

// acqPath is one branch outcome during merging.
type acqPath struct {
	state      acqState
	terminated bool
}

// mergeAcqPaths combines branch outcomes: the merged fall-through state
// is pessimistic about liveness (any falling path with an active
// resource keeps it active) and about deferred-closure coverage (all
// falling paths must have it).
func mergeAcqPaths(paths []acqPath) (acqState, bool) {
	var falling []acqState
	for _, p := range paths {
		if !p.terminated {
			falling = append(falling, p.state)
		}
	}
	if len(falling) == 0 {
		return acqState{}, true
	}
	out := acqState{closureDef: true}
	for _, s := range falling {
		if s.active && !out.active {
			out.active = true
			out.acqPos = s.acqPos
			out.errObj = s.errObj
		}
		if !s.closureDef {
			out.closureDef = false
		}
	}
	return out, false
}

// isTerminalCall matches calls that never return: panic, os.Exit,
// log.Fatal*, runtime.Goexit and testing's Fatal/Fatalf/Skip (via any
// receiver, conservatively by name).
func isTerminalCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
		return false
	}
	if path, name, ok := pkgFunc(info, call.Fun); ok {
		switch {
		case path == "os" && name == "Exit":
			return true
		case path == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln"):
			return true
		case path == "runtime" && name == "Goexit":
			return true
		}
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// --- error-guard pruning ----------------------------------------------------

type condKind int

const (
	condUnknown condKind = iota
	condErrNonNil
	condErrNil
)

// errCond classifies an if-condition against the paired error object:
// `err != nil` means the acquisition failed on the true branch,
// `err == nil` that it failed on the false branch.
func errCond(info *types.Info, cond ast.Expr, errObj types.Object) condKind {
	be, ok := unwrapExpr(cond).(*ast.BinaryExpr)
	if !ok {
		return condUnknown
	}
	var idSide ast.Expr
	if isNilIdent(info, be.Y) {
		idSide = be.X
	} else if isNilIdent(info, be.X) {
		idSide = be.Y
	} else {
		return condUnknown
	}
	id, ok := unwrapExpr(idSide).(*ast.Ident)
	if !ok || info.ObjectOf(id) != errObj {
		return condUnknown
	}
	switch be.Op {
	case token.NEQ:
		return condErrNonNil
	case token.EQL:
		return condErrNil
	}
	return condUnknown
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := unwrapExpr(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// pairedError finds the error-typed sibling of the resource slot in a
// tuple assignment, returning its object (nil when there is none).
func pairedError(info *types.Info, lhs []ast.Expr, resourceIdx int) types.Object {
	for i, l := range lhs {
		if i == resourceIdx {
			continue
		}
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() != nil &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return obj
		}
	}
	return nil
}
