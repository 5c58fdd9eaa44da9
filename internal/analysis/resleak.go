package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ResLeak reports acquired resources that can miss their release on some
// path. A leaked pipelined ssp.Client wedges its writer goroutine, an
// unclosed WriteBehind strands queued writes, a forgotten listener holds
// its port, and an unended trace span corrupts the span tree — and all
// of these hide on the early-error-return paths that tests rarely walk.
//
// An obligation is created when a call whose name starts with New, Open,
// Dial, Listen, Accept or Start returns a value whose type carries a
// release method (Close, Stop, Shutdown or End in the pointer method
// set) and is defined in this module (or package net). The obligation is
// discharged when the value is released on the path (directly or via
// defer), or when ownership demonstrably transfers: the value is
// returned, stored into a field, map, slice or global, passed to another
// call (the value itself, not a result read from it such as
// buf.Bytes()), captured by a function literal, sent on a channel, or
// handed to a goroutine — the goleak ownership rule: whoever can reach
// the value can stop it. Paths on which the paired error is non-nil (or
// the value itself is nil) carry no obligation, until that error variable
// is assigned again.
type ResLeak struct{}

func (ResLeak) Name() string { return "resleak" }
func (ResLeak) Doc() string {
	return "values with Close/Stop/Shutdown/End obligations must reach their release on every path, early error returns included"
}

// rlAcqPrefixes are the constructor-name prefixes that create an
// obligation when the result type carries a release method.
var rlAcqPrefixes = []string{"New", "Open", "Dial", "Listen", "Accept", "Start"}

// rlReleaseNames discharge an obligation when called on the value.
var rlReleaseNames = map[string]bool{
	"Close": true, "Stop": true, "Shutdown": true, "End": true,
}

// rlObl is one outstanding release obligation, keyed by the local
// variable holding the resource. Immutable after creation; path state
// tracks liveness by map membership.
type rlObl struct {
	obj    *types.Var   // the variable bound at the acquisition
	typ    string       // display type, e.g. "ssp.Client"
	pos    token.Pos    // acquisition site
	errObj types.Object // the paired error variable, if any
}

// rlState is one path's outstanding obligations.
type rlState struct {
	live map[*types.Var]*rlObl
}

func newRlState() *rlState { return &rlState{live: make(map[*types.Var]*rlObl)} }

func (st *rlState) clone() *rlState {
	c := newRlState()
	for k, v := range st.live {
		c.live[k] = v
	}
	return c
}

// rlWalker holds resleak's rules for the shared path walk (walk.go)
// over one function unit.
type rlWalker struct {
	p        *Package
	modRoot  string
	results  map[types.Object]bool // named result vars (bare return transfers them)
	reported map[token.Pos]bool    // acquisition sites already reported
	out      *[]Finding
}

func (ResLeak) Check(p *Package) []Finding {
	if p.Info == nil || p.Types == nil {
		return nil
	}
	modRoot := moduleRootOf(p.Path)
	var out []Finding
	for _, u := range newEffectEngine(p).units {
		w := &rlWalker{
			p: p, modRoot: modRoot,
			results:  namedResults(p, u),
			reported: make(map[token.Pos]bool),
			out:      &out,
		}
		if st := walkBody(w, newRlState(), u.body); st != nil {
			w.exit(st, u.body.Rbrace)
		}
	}
	return sortFindings(out)
}

// namedResults collects the unit's named result variables.
func namedResults(p *Package, u *funcUnit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	var ft *ast.FuncType
	if u.decl != nil {
		ft = u.decl.Type
	} else if u.lit != nil {
		ft = u.lit.Type
	}
	if ft == nil || ft.Results == nil {
		return out
	}
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// acquisition classifies a call as resource-acquiring. valIdx/errIdx are
// result positions; errIdx is -1 for infallible constructors.
func (w *rlWalker) acquisition(call *ast.CallExpr) (typ string, valIdx, errIdx int, ok bool) {
	fn := resolvedCallee(w.p.Info, call)
	if fn == nil {
		return "", 0, 0, false
	}
	name := fn.Name()
	prefixed := false
	for _, p := range rlAcqPrefixes {
		if strings.HasPrefix(name, p) {
			prefixed = true
			break
		}
	}
	if !prefixed {
		return "", 0, 0, false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok {
		return "", 0, 0, false
	}
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return "", 0, 0, false
	}
	errIdx = errorResultIndex(sig)
	for i := 0; i < res.Len(); i++ {
		if i == errIdx {
			continue
		}
		t := res.At(i).Type()
		disp, releasable := w.obligatedType(t)
		if releasable {
			return disp, i, errIdx, true
		}
	}
	return "", 0, 0, false
}

// obligatedType reports whether t carries a release obligation: a named
// type of this module (or package net) with a release method in its
// pointer method set.
func (w *rlWalker) obligatedType(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	path := obj.Pkg().Path()
	if !strings.HasPrefix(path, w.modRoot) && path != "net" {
		return "", false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		if rlReleaseNames[ms.At(i).Obj().Name()] {
			return pkgBase(path) + "." + obj.Name(), true
		}
	}
	return "", false
}

// transferIn discharges every obligation whose variable appears anywhere
// under node: the value escaped to something that can release it.
func (w *rlWalker) transferIn(st *rlState, node ast.Node) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, isVar := w.p.Info.ObjectOf(id).(*types.Var); isVar {
				delete(st.live, v)
			}
		}
		return true
	})
}

// oblFor resolves an expression to the obligation of the variable it
// names, if any.
func (w *rlWalker) oblFor(st *rlState, e ast.Expr) (*types.Var, *rlObl) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v, ok := w.p.Info.ObjectOf(id).(*types.Var)
	if !ok {
		return nil, nil
	}
	return v, st.live[v]
}

// procExpr processes an expression for releases and escapes. Bare reads
// of the handle (comparisons, field access, non-release method
// receivers) keep the obligation; argument positions, captures, address
// taking and composite literals discharge it as ownership transfer.
func (w *rlWalker) procExpr(st *rlState, e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.ParenExpr:
		w.procExpr(st, x.X)
	case *ast.CallExpr:
		w.procCall(st, x, false)
	case *ast.SelectorExpr:
		w.procExpr(st, x.X)
	case *ast.BinaryExpr:
		w.procExpr(st, x.X)
		w.procExpr(st, x.Y)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			w.transferIn(st, x.X)
		} else {
			w.procExpr(st, x.X)
		}
	case *ast.StarExpr:
		w.procExpr(st, x.X)
	case *ast.IndexExpr:
		w.procExpr(st, x.X)
		w.procExpr(st, x.Index)
	case *ast.SliceExpr:
		w.procExpr(st, x.X)
	case *ast.TypeAssertExpr:
		w.procExpr(st, x.X)
	case *ast.KeyValueExpr:
		w.procExpr(st, x.Value)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			w.transferIn(st, elt)
		}
	case *ast.FuncLit:
		// The literal may release or own the capture; either way the
		// obligation leaves this path (goleak's ownership rule).
		w.transferIn(st, x.Body)
	}
}

// procCall handles one call: release on the receiver, terminators, and
// argument escapes. spawn marks go/defer targets, where the receiver
// itself also transfers.
func (w *rlWalker) procCall(st *rlState, call *ast.CallExpr, spawn bool) {
	fn := resolvedCallee(w.p.Info, call)
	if recv := methodReceiver(w.p.Info, call); recv != nil {
		if v, obl := w.oblFor(st, recv); obl != nil {
			if fn != nil && rlReleaseNames[fn.Name()] {
				delete(st.live, v) // released
			} else if spawn {
				delete(st.live, v) // goroutine/defer owns the receiver now
			}
			// Other method calls read the handle; obligation stays.
		} else {
			w.procExpr(st, recv)
		}
	} else if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.transferIn(st, lit.Body)
	}
	for _, arg := range call.Args {
		w.procArg(st, arg)
	}
}

// procArg handles one call argument. The handle itself, or anything
// that can hold it (&buf, a composite literal, a closure), transfers
// ownership to the callee; a call result only does if that call hands
// the handle on, so passing buf.Bytes() to a call is a read of buf, not
// a hand-off.
func (w *rlWalker) procArg(st *rlState, arg ast.Expr) {
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		w.procCall(st, call, false)
		return
	}
	w.transferIn(st, arg)
}

// isTerminatorCall reports calls that end the path (panic, os.Exit,
// log.Fatal).
func (w *rlWalker) isTerminatorCall(call *ast.CallExpr) bool {
	if fn := resolvedCallee(w.p.Info, call); fn != nil {
		return isTerminatorFunc(fn)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := w.p.Info.ObjectOf(id).(*types.Builtin); isB {
			return b.Name() == "panic"
		}
	}
	return false
}

// exit reports every obligation still outstanding when a path leaves the
// function. Findings anchor at the acquisition and are deduplicated per
// acquisition site, so one leaky value yields one finding however many
// exits miss it.
func (w *rlWalker) exit(st *rlState, at token.Pos) {
	for _, obl := range st.live {
		if w.reported[obl.pos] {
			continue
		}
		w.reported[obl.pos] = true
		*w.out = append(*w.out, Finding{
			Analyzer: "resleak",
			Pos:      w.p.Fset.Position(obl.pos),
			Message: fmt.Sprintf("%s %q is not released on the path leaving at line %d; close it, hand off ownership, or allow with justification",
				obl.typ, obl.obj.Name(), w.p.Fset.Position(at).Line),
		})
	}
}

// applyCond refines st for one branch of cond: error-check and
// nil-check branches cancel the obligations they prove absent.
func (w *rlWalker) applyCond(st *rlState, cond ast.Expr, taken bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			w.applyCond(st, x.X, !taken)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if taken {
				w.applyCond(st, x.X, true)
				w.applyCond(st, x.Y, true)
			}
		case token.LOR:
			if !taken {
				w.applyCond(st, x.X, false)
				w.applyCond(st, x.Y, false)
			}
		case token.EQL, token.NEQ:
			id, other := ast.Unparen(x.X), ast.Unparen(x.Y)
			if !isNilIdent(w.p.Info, other) {
				id, other = other, id
			}
			if !isNilIdent(w.p.Info, other) {
				return
			}
			ident, ok := id.(*ast.Ident)
			if !ok {
				return
			}
			obj := w.p.Info.ObjectOf(ident)
			if obj == nil {
				return
			}
			isNil := taken == (x.Op == token.EQL) // branch where obj == nil holds
			for v, obl := range st.live {
				if obl.errObj == obj && !isNil {
					delete(st.live, v) // err != nil: acquisition failed
				}
				if types.Object(v) == obj && isNil {
					delete(st.live, v) // the handle itself is nil
				}
			}
		}
	}
}

// isNilIdent reports the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// --- path rules -------------------------------------------------------------

func (w *rlWalker) clone(st *rlState) *rlState { return st.clone() }

// join: an obligation outstanding on either path is outstanding after
// the join.
func (w *rlWalker) join(a, b *rlState) *rlState {
	for k, v := range b.live {
		a.live[k] = v
	}
	return a
}

func (w *rlWalker) leaf(st *rlState, s ast.Stmt) *rlState {
	switch x := s.(type) {
	case *ast.AssignStmt:
		w.handleAssign(st, x)
	case *ast.DeclStmt:
		w.handleDecl(st, x)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok && w.isTerminatorCall(call) {
			return nil
		}
		w.procExpr(st, x.X)
	case *ast.SendStmt:
		w.procExpr(st, x.Chan)
		w.transferIn(st, x.Value)
	case *ast.DeferStmt:
		w.procCall(st, x.Call, true)
	case *ast.GoStmt:
		w.procCall(st, x.Call, true)
	}
	return st
}

func (w *rlWalker) expr(st *rlState, e ast.Expr) { w.procExpr(st, e) }

func (w *rlWalker) refine(st *rlState, cond ast.Expr, taken bool) { w.applyCond(st, cond, taken) }

func (w *rlWalker) loop(*rlState, ast.Stmt) {}

// backEdge: an obligation still open at the end of an iteration (or at
// a continue) reaches the loop's exit.
func (w *rlWalker) backEdge(st *rlState) *rlState { return st }

func (w *rlWalker) ret(st *rlState, x *ast.ReturnStmt) {
	for _, r := range x.Results {
		w.transferIn(st, r)
	}
	if len(x.Results) == 0 {
		// Bare return hands named results to the caller.
		for v := range st.live {
			if w.results[v] {
				delete(st.live, v)
			}
		}
	}
	w.exit(st, x.Pos())
}

// handleAssign processes escapes, releases and acquisitions in one
// assignment.
func (w *rlWalker) handleAssign(st *rlState, as *ast.AssignStmt) {
	// RHS: direct aliasing discharges (the alias may be the one
	// released); everything else is positional via procExpr.
	for _, rhs := range as.Rhs {
		if v, obl := w.oblFor(st, rhs); obl != nil {
			delete(st.live, v)
			continue
		}
		w.procExpr(st, rhs)
	}
	// LHS: a plain ident is the write target (an obligated var being
	// overwritten loses its old obligation); anything structured is an
	// escape of whatever it mentions (map keys, field stores).
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if v, isVar := w.p.Info.ObjectOf(id).(*types.Var); isVar {
				delete(st.live, v)
				w.unpair(st, v)
			}
			continue
		}
		w.transferIn(st, lhs)
	}
	// Acquisitions bind new obligations to their target vars.
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		typ, valIdx, errIdx, ok := w.acquisition(call)
		if !ok {
			continue
		}
		csig, _ := w.p.Info.TypeOf(call.Fun).(*types.Signature)
		if csig == nil {
			continue
		}
		var valExpr, errExpr ast.Expr
		if len(as.Rhs) == 1 && csig.Results().Len() > 1 {
			if valIdx < len(as.Lhs) {
				valExpr = as.Lhs[valIdx]
			}
			if errIdx >= 0 && errIdx < len(as.Lhs) {
				errExpr = as.Lhs[errIdx]
			}
		} else if csig.Results().Len() == 1 && i < len(as.Lhs) {
			valExpr = as.Lhs[i]
		}
		if valExpr == nil {
			continue
		}
		id, ok := ast.Unparen(valExpr).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue // escaped into a structure, or explicitly dropped
		}
		v, isVar := w.p.Info.ObjectOf(id).(*types.Var)
		if !isVar {
			continue
		}
		obl := &rlObl{obj: v, typ: typ, pos: call.Pos()}
		if errExpr != nil {
			if eid, ok := ast.Unparen(errExpr).(*ast.Ident); ok && eid.Name != "_" {
				obl.errObj = w.p.Info.ObjectOf(eid)
			}
		}
		st.live[v] = obl
	}
}

// unpair drops the error pairing of every obligation whose paired error
// variable is being overwritten: after `err = f(buf.Bytes())` a non-nil
// err no longer means the acquisition failed. The obligation is copied,
// not edited, because other paths share it.
func (w *rlWalker) unpair(st *rlState, errVar *types.Var) {
	for v, obl := range st.live {
		if obl.errObj == types.Object(errVar) {
			c := *obl
			c.errObj = nil
			st.live[v] = &c
		}
	}
}

// handleDecl gives `var c = New...()` declarations assignment semantics.
func (w *rlWalker) handleDecl(st *rlState, ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		lhs := make([]ast.Expr, len(vs.Names))
		for i, n := range vs.Names {
			lhs[i] = n
		}
		w.handleAssign(st, &ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values})
	}
}
