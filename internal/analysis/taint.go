package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the taint-flow engine shared by the unverified and
// keyegress analyzers. The engine is intra-procedural — each function body
// is analyzed to a local fixpoint — with bottom-up per-function call
// summaries, so a taint introduced in one function of a package and sunk
// in another is still reported. Cross-package flow is expressed through
// the analyzer's source/sanitizer/sink configuration instead of whole-
// program analysis: the packages on the other side of the module boundary
// are analyzed on their own when sharoes-vet walks ./....
//
// The engine deliberately trades soundness for signal. It is flow-
// insensitive within a function (a sanitizer call blesses its argument
// for the whole body), does not track taint through struct fields across
// function boundaries, and treats unknown standard-library calls as
// taint-propagating. Those choices keep the real tree analyzable without
// drowning it in false positives; the invariants that matter — nothing
// unverified crosses into trusted client state, no key material crosses
// the wire unsealed — survive them.

// taintLabel identifies one origin of taint.
//
// param >= 0 marks "flows from parameter #param" and exists only while a
// function's summary is being computed; a finding is only ever reported
// for concrete labels (param == -1), which carry the source description
// and position.
type taintLabel struct {
	param int
	// raw marks extracted key bytes (k[:], k.Marshal()) as opposed to a
	// key-typed value. Module-internal callees are trusted to handle
	// key-typed values (they are analyzed in their own package), but raw
	// bytes stay tainted through any call.
	raw  bool
	desc string
	pos  token.Pos
}

// concreteLabel builds a reportable source label.
func concreteLabel(desc string, raw bool, pos token.Pos) taintLabel {
	return taintLabel{param: -1, raw: raw, desc: desc, pos: pos}
}

// taintSet is a set of taint origins.
type taintSet map[taintLabel]struct{}

func (s taintSet) add(l taintLabel) bool {
	if _, ok := s[l]; ok {
		return false
	}
	s[l] = struct{}{}
	return true
}

func (s taintSet) union(o taintSet) bool {
	changed := false
	for l := range o {
		if s.add(l) {
			changed = true
		}
	}
	return changed
}

// concrete reports whether the set contains at least one reportable
// (non-parameter) label, returning the lexically first for the message.
func (s taintSet) concrete() (taintLabel, bool) {
	var best taintLabel
	found := false
	for l := range s {
		if l.param >= 0 {
			continue
		}
		if !found || l.desc < best.desc {
			best, found = l, true
		}
	}
	return best, found
}

// taintSpec configures the engine for one analyzer.
type taintSpec struct {
	// analyzer is the reporting analyzer's name, used in findings.
	analyzer string
	// sourceCall classifies a resolved callee as a taint source for its
	// non-error results (e.g. an SSP read). Returns a short description.
	sourceCall func(fn *types.Func) (string, bool)
	// sourceExpr classifies an expression as inherently tainted by its
	// type or shape (e.g. a key-typed value). raw marks extracted bytes.
	sourceExpr func(info *types.Info, e ast.Expr) (desc string, raw bool, ok bool)
	// sanitizer classifies a resolved callee as clearing taint: its
	// results are trusted and its argument roots are blessed for the
	// rest of the function (Verify-style sanitizers verify in place).
	sanitizer func(fn *types.Func) bool
	// sinkCall classifies a resolved callee as a sink. args lists the
	// argument indices that must stay untainted; nil means all.
	sinkCall func(fn *types.Func) (desc string, args []int, ok bool)
	// sourceParam classifies a parameter of type t of decl as tainted on
	// entry (e.g. the bytes an opener of the client's sealing seam is
	// handed). Returns a short description.
	sourceParam func(decl *ast.FuncDecl, t types.Type) (string, bool)
	// sinkReturn reports whether the function's return values are a
	// trusted sink (e.g. exported client API).
	sinkReturn func(p *Package, decl *ast.FuncDecl) (string, bool)
	// sinkComposite reports whether composite literals of type t are a
	// sink (e.g. wire frames that must not embed key material).
	sinkComposite func(t types.Type) (string, bool)
	// fieldTaint propagates a container's taint into field selections
	// (x tainted ⇒ x.f tainted). The unverified analyzer needs it (a
	// decoded response taints its fields); keyegress must not use it
	// (a struct holding a key does not make its string fields secret).
	fieldTaint bool
	// opaqueModuleCalls treats unknown module-internal callees as
	// trusted for non-raw labels: key-typed values handed to another
	// package of this module are that package's responsibility.
	opaqueModuleCalls bool
}

// maxBodyPasses bounds the local fixpoint; assignment chains longer than
// this do not occur in practice and the analysis stays sound-enough by
// simply stopping.
const maxBodyPasses = 32

// sinkHit records a sink reached by a parameter inside a callee, so the
// taint can be reported at a call site that supplies a concrete source.
type sinkHit struct {
	desc string
	pos  token.Pos
}

// funcSummary is the bottom-up call summary of one function.
type funcSummary struct {
	// results[i] holds the labels that may reach result i: parameter
	// labels mean "argument i flows through", concrete labels mean the
	// function introduces that taint itself.
	results []taintSet
	// paramSinks maps a parameter index to sinks it reaches inside the
	// function (directly or through further calls).
	paramSinks map[int][]sinkHit
}

// funcInfo pairs a declared function with its analysis state.
type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	params  []types.Object // receiver (if any) then parameters
	results []types.Object // named results; nil entries for unnamed
	nres    int
	sum     *funcSummary
}

// taintEngine analyzes one package under one spec. It is an effect
// domain over the shared effectEngine: taint effects attach to the
// declared function units (literal units carry no taint summaries of
// their own — the engine predates them and treats a literal's body as
// part of its enclosing function, which is sound for taint because the
// lexical variable state is shared).
type taintEngine struct {
	eng     *effectEngine
	p       *Package
	spec    *taintSpec
	modRoot string // module path prefix for module-internal detection
	funcs   map[*types.Func]*funcInfo
	order   []*funcInfo
}

// analyzeTaint runs the engine and returns the findings.
func analyzeTaint(p *Package, spec *taintSpec) []Finding {
	e := &taintEngine{
		eng:     newEffectEngine(p),
		p:       p,
		spec:    spec,
		modRoot: moduleRootOf(p.Path),
		funcs:   make(map[*types.Func]*funcInfo),
	}
	e.collect()
	e.summarize()
	return e.report()
}

// moduleRootOf guesses the module path from an import path: everything
// before the first /internal/ or /cmd/ segment (the whole path
// otherwise). This keeps the engine independent of the Loader while
// still recognizing sibling packages of this module, including test
// fixtures (whose nested internal/ trees make the real module a prefix).
func moduleRootOf(path string) string {
	cut := len(path)
	if i := strings.Index(path, "/internal/"); i >= 0 && i < cut {
		cut = i
	}
	if i := strings.Index(path, "/cmd/"); i >= 0 && i < cut {
		cut = i
	}
	return path[:cut]
}

func (e *taintEngine) isModuleInternal(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), e.modRoot)
}

// collect builds taint state for the effect engine's declared units.
func (e *taintEngine) collect() {
	for _, u := range e.eng.units {
		if u.decl == nil {
			continue // literal bodies analyze with their enclosing function
		}
		fd, obj := u.decl, u.obj
		fi := &funcInfo{decl: fd, obj: obj}
		if fd.Recv != nil {
			for _, f := range fd.Recv.List {
				for _, n := range f.Names {
					fi.params = append(fi.params, e.p.Info.Defs[n])
				}
				if len(f.Names) == 0 {
					fi.params = append(fi.params, nil) // unnamed receiver
				}
			}
		}
		if fd.Type.Params != nil {
			for _, f := range fd.Type.Params.List {
				for _, n := range f.Names {
					fi.params = append(fi.params, e.p.Info.Defs[n])
				}
				if len(f.Names) == 0 {
					fi.params = append(fi.params, nil)
				}
			}
		}
		if fd.Type.Results != nil {
			for _, f := range fd.Type.Results.List {
				if len(f.Names) == 0 {
					fi.nres++
					fi.results = append(fi.results, nil)
					continue
				}
				for _, n := range f.Names {
					fi.nres++
					fi.results = append(fi.results, e.p.Info.Defs[n])
				}
			}
		}
		fi.sum = &funcSummary{paramSinks: make(map[int][]sinkHit)}
		for i := 0; i < fi.nres; i++ {
			fi.sum.results = append(fi.sum.results, make(taintSet))
		}
		e.funcs[obj] = fi
		e.order = append(e.order, fi)
	}
}

// summarize drives the taint summaries to the package-level fixpoint via
// the shared effect engine. Recursive and mutually recursive call graphs
// terminate because summaries only ever grow.
func (e *taintEngine) summarize() {
	e.eng.fixpoint(func(u *funcUnit) bool {
		fi, ok := e.funcs[u.obj]
		if !ok {
			return false
		}
		st := e.analyzeBody(fi)
		return e.mergeSummary(fi, st)
	})
}

// mergeSummary folds one body analysis into fi's summary, reporting
// whether anything new was learned.
func (e *taintEngine) mergeSummary(fi *funcInfo, st *bodyState) bool {
	changed := false
	for i, ts := range st.returns {
		if i < len(fi.sum.results) && fi.sum.results[i].union(ts) {
			changed = true
		}
	}
	for param, hits := range st.paramSinks {
		have := make(map[sinkHit]bool)
		for _, h := range fi.sum.paramSinks[param] {
			have[h] = true
		}
		for h := range hits {
			if !have[h] {
				fi.sum.paramSinks[param] = append(fi.sum.paramSinks[param], h)
				changed = true
			}
		}
	}
	return changed
}

// bodyState is the converged intra-procedural state of one function.
type bodyState struct {
	fi      *funcInfo
	vars    map[types.Object]taintSet
	blessed map[types.Object]bool
	// returns[i] accumulates the taint of result i over all returns.
	returns []taintSet
	// paramSinks accumulates parameter labels reaching sinks.
	paramSinks map[int]map[sinkHit]struct{}
}

// analyzeBody runs the local fixpoint for one function, with parameters
// seeded as parameter labels so the walk computes the summary and the
// concrete findings in a single pass.
func (e *taintEngine) analyzeBody(fi *funcInfo) *bodyState {
	st := &bodyState{
		fi:         fi,
		vars:       make(map[types.Object]taintSet),
		blessed:    make(map[types.Object]bool),
		paramSinks: make(map[int]map[sinkHit]struct{}),
	}
	for i := 0; i < fi.nres; i++ {
		st.returns = append(st.returns, make(taintSet))
	}
	for i, obj := range fi.params {
		if obj != nil {
			st.vars[obj] = taintSet{{param: i}: struct{}{}}
			if e.spec.sourceParam != nil {
				if desc, ok := e.spec.sourceParam(fi.decl, obj.Type()); ok {
					st.vars[obj].add(concreteLabel(desc, false, obj.Pos()))
				}
			}
		}
	}
	for pass := 0; pass < maxBodyPasses; pass++ {
		if !e.walk(st, fi.decl.Body) {
			break
		}
	}
	e.sinkFlows(st)
	return st
}

// walk performs one propagation pass over a statement tree, returning
// whether any variable's taint grew.
func (e *taintEngine) walk(st *bodyState, body ast.Node) bool {
	changed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if e.assign(st, s.Lhs, s.Rhs) {
				changed = true
			}
		case *ast.GenDecl:
			for _, sp := range s.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				if e.assign(st, lhs, vs.Values) {
					changed = true
				}
			}
		case *ast.RangeStmt:
			t := e.exprTaint(st, s.X)
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if v == nil {
					continue
				}
				if e.taintTarget(st, v, t) {
					changed = true
				}
			}
		case *ast.ReturnStmt:
			e.recordReturn(st, s)
		case *ast.SendStmt:
			if e.taintTarget(st, s.Chan, e.exprTaint(st, s.Value)) {
				changed = true
			}
		case *ast.CallExpr:
			if e.callEffects(st, s) {
				changed = true
			}
		}
		return true
	})
	return changed
}

// recordReturn folds a return statement into the per-result taint.
func (e *taintEngine) recordReturn(st *bodyState, ret *ast.ReturnStmt) {
	if len(ret.Results) == 0 {
		// Bare return: named results carry the state.
		for i, obj := range st.fi.results {
			if obj != nil {
				st.returns[i].union(st.vars[obj])
			}
		}
		return
	}
	if len(ret.Results) == 1 && st.fi.nres > 1 {
		// return f() forwarding a tuple.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			for i, ts := range e.callResultTaints(st, call, st.fi.nres) {
				st.returns[i].union(ts)
			}
			return
		}
	}
	for i, r := range ret.Results {
		if i < len(st.returns) {
			st.returns[i].union(e.exprTaint(st, r))
		}
	}
}

// assign propagates rhs taint into lhs targets.
func (e *taintEngine) assign(st *bodyState, lhs, rhs []ast.Expr) bool {
	changed := false
	if len(lhs) > 1 && len(rhs) == 1 {
		// x, y := f()  or  v, ok := m[k]  /  v, ok := x.(T)
		var per []taintSet
		switch r := ast.Unparen(rhs[0]).(type) {
		case *ast.CallExpr:
			per = e.callResultTaints(st, r, len(lhs))
		default:
			t := e.exprTaint(st, rhs[0])
			per = make([]taintSet, len(lhs))
			for i := range per {
				per[i] = t
			}
		}
		for i, l := range lhs {
			if e.taintTarget(st, l, per[i]) {
				changed = true
			}
		}
		return changed
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		if e.taintTarget(st, l, e.exprTaint(st, rhs[i])) {
			changed = true
		}
	}
	return changed
}

// taintTarget adds taint to the root object of an assignment target.
// Writing through a field, index or dereference taints the container.
func (e *taintEngine) taintTarget(st *bodyState, target ast.Expr, t taintSet) bool {
	if len(t) == 0 {
		return false
	}
	obj := e.rootObj(target)
	if obj == nil {
		return false
	}
	set := st.vars[obj]
	if set == nil {
		set = make(taintSet)
		st.vars[obj] = set
	}
	return set.union(t)
}

// rootObj resolves the variable object ultimately written by an
// assignment target expression.
func (e *taintEngine) rootObj(target ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(target).(type) {
		case *ast.Ident:
			obj := e.p.Info.Uses[x]
			if obj == nil {
				obj = e.p.Info.Defs[x]
			}
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			// A package-qualified name has no root variable.
			if _, ok := e.p.Info.Uses[x.Sel].(*types.Var); !ok {
				if sel := e.p.Info.Selections[x]; sel == nil {
					return nil
				}
			}
			target = x.X
		case *ast.IndexExpr:
			target = x.X
		case *ast.SliceExpr:
			target = x.X
		case *ast.StarExpr:
			target = x.X
		default:
			return nil
		}
	}
}

// exprTaint computes the taint of an expression under the current state.
func (e *taintEngine) exprTaint(st *bodyState, expr ast.Expr) taintSet {
	out := make(taintSet)
	if expr == nil {
		return out
	}
	expr = ast.Unparen(expr)

	// Type/shape sources apply to every expression form.
	if e.spec.sourceExpr != nil {
		if desc, raw, ok := e.spec.sourceExpr(e.p.Info, expr); ok {
			out.add(concreteLabel(desc, raw, expr.Pos()))
		}
	}

	switch x := expr.(type) {
	case *ast.Ident:
		obj := e.p.Info.Uses[x]
		if obj != nil && !st.blessed[obj] {
			out.union(st.vars[obj])
		}
	case *ast.SelectorExpr:
		// Package-qualified identifiers carry no taint of their own.
		if sel := e.p.Info.Selections[x]; sel != nil {
			if e.spec.fieldTaint || sel.Kind() != types.FieldVal {
				out.union(e.exprTaint(st, x.X))
			}
		}
	case *ast.IndexExpr:
		out.union(e.exprTaint(st, x.X))
	case *ast.SliceExpr:
		out.union(e.exprTaint(st, x.X))
	case *ast.StarExpr:
		out.union(e.exprTaint(st, x.X))
	case *ast.UnaryExpr:
		out.union(e.exprTaint(st, x.X))
	case *ast.BinaryExpr:
		out.union(e.exprTaint(st, x.X))
		out.union(e.exprTaint(st, x.Y))
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out.union(e.exprTaint(st, elt))
		}
	case *ast.TypeAssertExpr:
		out.union(e.exprTaint(st, x.X))
	case *ast.CallExpr:
		ts := e.callResultTaints(st, x, 1)
		out.union(ts[0])
	}
	return out
}

// callArgs returns the call's effective argument expressions with the
// method receiver, if any, prepended — matching funcInfo.params.
func (e *taintEngine) callArgs(call *ast.CallExpr) []ast.Expr {
	if recv := methodReceiver(e.p.Info, call); recv != nil {
		return append([]ast.Expr{recv}, call.Args...)
	}
	return call.Args
}

// isCleanResultType reports result types that never carry taint: errors
// and booleans describe outcomes, not data.
func isCleanResultType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
		return true
	}
	return false
}

// callResultTaints computes per-result taint for a call expression.
func (e *taintEngine) callResultTaints(st *bodyState, call *ast.CallExpr, nres int) []taintSet {
	out := make([]taintSet, nres)
	for i := range out {
		out[i] = make(taintSet)
	}
	resultType := func(i int) types.Type {
		tv, ok := e.p.Info.Types[call]
		if !ok {
			return nil
		}
		if tup, ok := tv.Type.(*types.Tuple); ok {
			if i < tup.Len() {
				return tup.At(i).Type()
			}
			return nil
		}
		if i == 0 {
			return tv.Type
		}
		return nil
	}
	fill := func(ts taintSet) {
		for i := range out {
			if isCleanResultType(resultType(i)) {
				continue
			}
			out[i].union(ts)
		}
	}

	// Conversions: T(x) carries x's taint.
	if tv, ok := e.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		fill(e.exprTaint(st, call.Args[0]))
		if e.spec.sourceExpr != nil {
			if desc, raw, ok := e.spec.sourceExpr(e.p.Info, call); ok {
				fill(taintSet{concreteLabel(desc, raw, call.Pos()): struct{}{}})
			}
		}
		return out
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := e.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				u := make(taintSet)
				for _, a := range call.Args {
					u.union(e.exprTaint(st, a))
				}
				fill(u)
			case "len", "cap", "min", "max", "make", "new":
				// Sizes and fresh values carry no taint.
			default:
				u := make(taintSet)
				for _, a := range call.Args {
					u.union(e.exprTaint(st, a))
				}
				fill(u)
			}
			return out
		}
	}

	fn := resolvedCallee(e.p.Info, call)
	if fn != nil {
		if e.spec.sanitizer != nil && e.spec.sanitizer(fn) {
			return out // results trusted; argument blessing in callEffects
		}
		if e.spec.sourceCall != nil {
			if desc, ok := e.spec.sourceCall(fn); ok {
				fill(taintSet{concreteLabel(desc, false, call.Pos()): struct{}{}})
				return out
			}
		}
		if fi, ok := e.funcs[fn]; ok {
			// Package-local call: substitute arguments into the summary.
			args := e.callArgs(call)
			for i := range out {
				if i >= len(fi.sum.results) {
					break
				}
				for l := range fi.sum.results[i] {
					if l.param < 0 {
						out[i].add(l)
						continue
					}
					if l.param < len(args) {
						out[i].union(e.exprTaint(st, args[l.param]))
					}
				}
			}
			return out
		}
	}

	// Unknown callee: propagate argument (and receiver / function value)
	// taint, filtered for module-internal callees under keyegress.
	u := make(taintSet)
	for _, a := range e.callArgs(call) {
		u.union(e.exprTaint(st, a))
	}
	if fn == nil {
		// Calling a function value: the value itself may carry taint
		// (method value bound to a tainted receiver).
		u.union(e.exprTaint(st, call.Fun))
	}
	if fn != nil && e.spec.opaqueModuleCalls && e.isModuleInternal(fn) {
		filtered := make(taintSet)
		for l := range u {
			if l.raw {
				filtered.add(l)
			}
		}
		u = filtered
	}
	fill(u)
	return out
}

// callEffects applies a call's side effects on the state: sanitizer
// blessing, decode-into-pointer propagation, and receiver mutation by
// unknown callees. Returns whether any variable's taint grew.
func (e *taintEngine) callEffects(st *bodyState, call *ast.CallExpr) bool {
	fn := resolvedCallee(e.p.Info, call)
	if fn != nil && e.spec.sanitizer != nil && e.spec.sanitizer(fn) {
		// Verify-style sanitizers verify their arguments in place.
		for _, a := range e.callArgs(call) {
			if obj := e.rootObj(a); obj != nil {
				st.blessed[obj] = true
			}
		}
		return false
	}
	if fn != nil {
		if _, local := e.funcs[fn]; local {
			return false // summaries model local calls
		}
		if e.spec.sourceCall != nil {
			if _, isSource := e.spec.sourceCall(fn); isSource {
				return false
			}
		}
	}

	// Unknown callee: arguments may flow into pointer arguments
	// (json.Unmarshal(blob, &out)) and into the receiver (buf.Write(b)).
	u := make(taintSet)
	args := e.callArgs(call)
	for _, a := range args {
		u.union(e.exprTaint(st, a))
	}
	if len(u) == 0 {
		return false
	}
	if fn != nil && e.spec.opaqueModuleCalls && e.isModuleInternal(fn) {
		filtered := make(taintSet)
		for l := range u {
			if l.raw {
				filtered.add(l)
			}
		}
		if len(filtered) == 0 {
			return false
		}
		u = filtered
	}
	changed := false
	// Accumulator mutation (buf.Write(b) taints buf) applies only to
	// module-external receivers: a module type's methods are analyzed in
	// their own package, and tainting a *client.Session because one of
	// its caches saw a tainted key would cascade through every method.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && (fn == nil || !e.isModuleInternal(fn)) {
		if s := e.p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if e.taintTarget(st, sel.X, u) {
				changed = true
			}
		}
	}
	for _, a := range call.Args {
		if un, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && un.Op == token.AND {
			if e.taintTarget(st, un.X, u) {
				changed = true
			}
		}
	}
	return changed
}

// report runs the final pass over every function with converged
// summaries, collecting findings.
func (e *taintEngine) report() []Finding {
	var out []Finding
	for _, fi := range e.order {
		st := e.analyzeBody(fi)
		out = append(out, e.reportBody(fi, st)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// reportBody walks one converged function body and emits findings for
// concrete taint reaching sinks.
func (e *taintEngine) reportBody(fi *funcInfo, st *bodyState) []Finding {
	var out []Finding
	emit := func(pos token.Pos, srcLabel taintLabel, sinkDesc string) {
		src := srcLabel.desc
		if srcLabel.pos.IsValid() {
			p := e.p.Fset.Position(srcLabel.pos)
			src = fmt.Sprintf("%s (%s:%d)", src, baseName(p.Filename), p.Line)
		}
		out = append(out, Finding{
			Analyzer: e.spec.analyzer,
			Pos:      e.p.Fset.Position(pos),
			Message:  fmt.Sprintf("%s reaches %s", src, sinkDesc),
		})
	}

	returnSinkDesc, isReturnSink := "", false
	if e.spec.sinkReturn != nil {
		returnSinkDesc, isReturnSink = e.spec.sinkReturn(e.p, fi.decl)
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := resolvedCallee(e.p.Info, x)
			if fn == nil {
				return true
			}
			if e.spec.sanitizer != nil && e.spec.sanitizer(fn) {
				return true
			}
			if e.spec.sinkCall != nil {
				if desc, argIdx, ok := e.spec.sinkCall(fn); ok {
					e.checkSinkArgs(st, x, desc, argIdx, emit)
					return true
				}
			}
			// Package-local callee that sinks a parameter internally:
			// report at this call site when the argument carries taint.
			if callee, ok := e.funcs[fn]; ok && len(callee.sum.paramSinks) > 0 {
				args := e.callArgs(x)
				for param, hits := range callee.sum.paramSinks {
					if param >= len(args) {
						continue
					}
					if l, ok := e.exprTaint(st, args[param]).concrete(); ok {
						for _, h := range hits {
							emit(args[param].Pos(), l, h.desc+" inside "+fn.Name())
						}
					}
				}
			}
		case *ast.ReturnStmt:
			if !isReturnSink {
				return true
			}
			for _, r := range x.Results {
				if l, ok := e.exprTaint(st, r).concrete(); ok {
					emit(r.Pos(), l, returnSinkDesc)
				}
			}
			if len(x.Results) == 0 {
				for _, obj := range fi.results {
					if obj == nil || st.blessed[obj] {
						continue
					}
					if l, ok := st.vars[obj].concrete(); ok {
						emit(x.Pos(), l, returnSinkDesc)
					}
				}
			}
		case *ast.CompositeLit:
			if e.spec.sinkComposite == nil {
				return true
			}
			t := e.p.Info.TypeOf(x)
			if t == nil {
				return true
			}
			desc, ok := e.spec.sinkComposite(t)
			if !ok {
				return true
			}
			for _, elt := range x.Elts {
				v := elt
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					v = kv.Value
				}
				if l, ok := e.exprTaint(st, v).concrete(); ok {
					emit(v.Pos(), l, desc)
				}
			}
		}
		return true
	})

	return out
}

// checkSinkArgs reports tainted arguments of a sink call and records
// parameter flows for the summary.
func (e *taintEngine) checkSinkArgs(st *bodyState, call *ast.CallExpr, desc string, argIdx []int, emit func(token.Pos, taintLabel, string)) {
	check := func(a ast.Expr) {
		if l, ok := e.exprTaint(st, a).concrete(); ok {
			emit(a.Pos(), l, desc)
		}
	}
	for _, a := range e.sinkArgExprs(call, argIdx) {
		check(a)
	}
}

// sinkArgExprs resolves a sink's argIdx spec against a call: nil means
// every plain argument; index -1 names the method receiver (the data in
// req.Encode() is the receiver, not an argument).
func (e *taintEngine) sinkArgExprs(call *ast.CallExpr, argIdx []int) []ast.Expr {
	if argIdx == nil {
		return call.Args
	}
	var out []ast.Expr
	for _, i := range argIdx {
		if i == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if s := e.p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					out = append(out, sel.X)
				}
			}
			continue
		}
		if i < len(call.Args) {
			out = append(out, call.Args[i])
		}
	}
	return out
}

// sinkFlows records parameter labels reaching sinks inside the function,
// mirroring reportBody's sink walk but collecting only parameter flows.
// analyzeBody runs it once the local state has converged.
func (e *taintEngine) sinkFlows(st *bodyState) {
	ast.Inspect(st.fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := resolvedCallee(e.p.Info, call)
		if fn == nil {
			return true
		}
		if e.spec.sanitizer != nil && e.spec.sanitizer(fn) {
			return true
		}
		record := func(a ast.Expr, desc string, pos token.Pos) {
			for l := range e.exprTaint(st, a) {
				if l.param < 0 {
					continue
				}
				if st.paramSinks[l.param] == nil {
					st.paramSinks[l.param] = make(map[sinkHit]struct{})
				}
				st.paramSinks[l.param][sinkHit{desc: desc, pos: pos}] = struct{}{}
			}
		}
		if e.spec.sinkCall != nil {
			if desc, argIdx, ok := e.spec.sinkCall(fn); ok {
				for _, a := range e.sinkArgExprs(call, argIdx) {
					record(a, desc, call.Pos())
				}
				return true
			}
		}
		// Transitive: a parameter handed to a local callee that sinks it.
		if callee, ok := e.funcs[fn]; ok && len(callee.sum.paramSinks) > 0 {
			args := e.callArgs(call)
			for param, hits := range callee.sum.paramSinks {
				if param >= len(args) {
					continue
				}
				for _, h := range hits {
					record(args[param], h.desc+" inside "+fn.Name(), h.pos)
				}
			}
		}
		return true
	})
}

// baseName trims a path to its final element for compact messages.
func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
