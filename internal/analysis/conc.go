package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// This file implements the concurrency effect engine shared by the
// lockorder and goleak analyzers. It is a second effect domain over the
// effectEngine framework (effects.go), alongside taint: where taint
// summaries describe data flowing through a function, lock summaries
// describe the function's net effect on the lock state — which locks it
// acquires or releases for its caller — plus the facts goleak needs
// about the loops and shutdown edges it reaches.
//
// The engine runs two phases per package, both through the shared path
// walk (walk.go) with the lock rules below:
//
//  1. Summary fixpoint: every function unit is walked path-sensitively,
//     computing its net lock effect (Lock minus Unlock per class, as
//     seen by a caller) and the set of lock classes it transitively
//     acquires. Summaries only grow/stabilize, so recursion terminates.
//  2. Record walk: every unit is walked again against the converged
//     summaries, recording lock-acquisition edges (lockorder), goroutine
//     spawn sites, plain local call sites, closed and received channel
//     classes (goleak).
//
// Precision choices, deliberately traded for signal on the real tree:
//
//   - Lock classes for struct fields are keyed by the *static type* of
//     the owner ("pkg.Type.mu"), so two instances of one type alias to
//     one class.
//   - sync.Cond.Wait is treated as a no-op on the lock state: it
//     releases and re-acquires its locker, which nets to zero.
//   - TryLock/TryRLock acquire conditionally and are ignored.
//   - A loop's exit sees the lock state it was entered with: the end of
//     an iteration and a continue add nothing to it.

// --- lock classes -----------------------------------------------------------

// concClass describes one lock or channel "class" — the unit of
// aliasing.
type concClass struct {
	key   string // unique key ("field:pkg.Type.f", "var:pkg.v", "local:off")
	owner string // "pkg.Type" for fields, "" otherwise
	field string // field name, for messages
}

// display renders a class for findings: "Type.f" for fields, the
// variable name otherwise.
func (c concClass) display() string {
	switch {
	case c.owner != "":
		if i := strings.LastIndexByte(c.owner, '.'); i >= 0 {
			return c.owner[i+1:] + "." + c.field
		}
		return c.owner + "." + c.field
	default:
		return c.field
	}
}

// rlockSuffix marks the read-mode held count of an RWMutex class.
const rlockSuffix = "#r"

func baseKey(modeKey string) string {
	return strings.TrimSuffix(modeKey, rlockSuffix)
}

// --- engine state -----------------------------------------------------------

// lockSummary is the bottom-up concurrency summary of one function unit.
type lockSummary struct {
	// net maps a mode key to the lock-count delta a caller observes
	// across a call (0 for balanced functions, +1 for lock-transfer
	// helpers, -1 for unlock helpers), from the last return (or the
	// fall-through end) with defers applied.
	net map[string]int
	// acquired is the set of base class keys this unit locks itself or
	// via plain local calls (spawned goroutines excluded: their
	// acquisitions happen on another thread and impose no ordering on
	// this one).
	acquired map[string]bool
	// loopRisk marks a body that can run forever: a for-statement with
	// no condition, or a range over a channel, here or in a plain local
	// callee. goleak only audits spawns of loopRisk units.
	loopRisk bool
	// waits marks a body containing a sync.WaitGroup Wait call — a
	// joining spawner owns its goroutines' lifetimes.
	waits bool
	// usesDone marks a body (transitively) selecting on a
	// context.Context.Done channel.
	usesDone bool
}

func newLockSummary() *lockSummary {
	return &lockSummary{net: make(map[string]int), acquired: make(map[string]bool)}
}

// callSite records one plain local call, for goleak's transitive
// receive sets.
type callSite struct {
	caller *funcUnit
	callee *funcUnit
}

// spawnSite records one go statement for goleak.
type spawnSite struct {
	unit   *funcUnit // spawning unit
	target *funcUnit // spawned local unit (nil if cross-package: skipped)
	pos    token.Pos
}

// concEngine is the per-package concurrency analysis state.
type concEngine struct {
	p       *Package
	eng     *effectEngine
	sums    map[*funcUnit]*lockSummary
	classes map[string]concClass // key -> class metadata

	// record-walk outputs
	edges  map[[2]string]token.Pos // held-before-acquired pairs of base keys
	sites  []callSite
	spawns []spawnSite
	closes map[string]bool               // classes of channels passed to close()
	recvs  map[*funcUnit]map[string]bool // channel classes a unit receives from
}

// concCache memoizes one engine run per package so the two analyzers
// share it. It is package state behind the exported Check methods,
// which callers may run from concurrent goroutines, hence the lock.
var (
	concCacheMu sync.Mutex
	concCache   = map[*Package]*concEngine{}
)

func concFor(p *Package) *concEngine {
	concCacheMu.Lock()
	defer concCacheMu.Unlock()
	if e, ok := concCache[p]; ok {
		return e
	}
	e := &concEngine{
		p:       p,
		eng:     newEffectEngine(p),
		sums:    make(map[*funcUnit]*lockSummary),
		classes: make(map[string]concClass),
		edges:   make(map[[2]string]token.Pos),
		closes:  make(map[string]bool),
		recvs:   make(map[*funcUnit]map[string]bool),
	}
	for _, u := range e.eng.units {
		e.sums[u] = newLockSummary()
	}
	e.eng.fixpoint(func(u *funcUnit) bool {
		w := &concWalker{e: e, u: u}
		w.walkUnit()
		return e.mergeSummary(u, w)
	})
	for _, u := range e.eng.units {
		w := &concWalker{e: e, u: u, record: true}
		w.walkUnit()
	}
	concCache[p] = e
	return e
}

// mergeSummary folds one walk into u's summary; reports growth.
func (e *concEngine) mergeSummary(u *funcUnit, w *concWalker) bool {
	sum := e.sums[u]
	changed := false
	for k, d := range w.exitNet() {
		if sum.net[k] != d {
			sum.net[k] = d
			changed = true
		}
	}
	for k := range w.acquired {
		if !sum.acquired[k] {
			sum.acquired[k] = true
			changed = true
		}
	}
	if w.loopRisk && !sum.loopRisk {
		sum.loopRisk = true
		changed = true
	}
	if w.waits && !sum.waits {
		sum.waits = true
		changed = true
	}
	if w.usesDone && !sum.usesDone {
		sum.usesDone = true
		changed = true
	}
	return changed
}

// --- class resolution -------------------------------------------------------

// classOf resolves an expression to its lock/channel class. Returns the
// zero class (key "") when no stable class exists.
func (e *concEngine) classOf(expr ast.Expr) concClass {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if sel := e.p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				recv := sel.Recv()
				for {
					if ptr, ok := recv.Underlying().(*types.Pointer); ok {
						recv = ptr.Elem()
						continue
					}
					break
				}
				named, ok := recv.(*types.Named)
				if !ok {
					return concClass{}
				}
				obj := named.Obj()
				pkg := ""
				if obj.Pkg() != nil {
					pkg = obj.Pkg().Path()
				}
				owner := pkg + "." + obj.Name()
				field := sel.Obj().Name()
				return e.intern(concClass{
					key:   "field:" + owner + "." + field,
					owner: owner,
					field: field,
				})
			}
			// Package-qualified variable (pkg.Var) or method expr.
			if v, ok := e.p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
				return e.intern(concClass{
					key:   "var:" + v.Pkg().Path() + "." + v.Name(),
					field: v.Name(),
				})
			}
			return concClass{}
		case *ast.Ident:
			v, ok := e.p.Info.Uses[x].(*types.Var)
			if !ok {
				v, ok = e.p.Info.Defs[x].(*types.Var)
			}
			if !ok || v == nil {
				return concClass{}
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return e.intern(concClass{
					key:   "var:" + v.Pkg().Path() + "." + v.Name(),
					field: v.Name(),
				})
			}
			return e.intern(concClass{
				key:   fmt.Sprintf("local:%s@%d", v.Name(), v.Pos()),
				field: v.Name(),
			})
		case *ast.StarExpr:
			expr = x.X
		case *ast.UnaryExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X // elements of one container alias one class
		case *ast.SliceExpr:
			expr = x.X
		default:
			return concClass{}
		}
	}
}

func (e *concEngine) intern(c concClass) concClass {
	if c.key != "" {
		e.classes[c.key] = c
	}
	return c
}

// syncNamed reports whether t (after pointer deref) is the named sync
// type name (e.g. "Mutex").
func syncNamed(t types.Type, names ...string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// lockOp classifies a call as a mutex operation, resolving the lock
// class of its receiver. Returns ("", zero) for non-lock calls.
func (e *concEngine) lockOp(call *ast.CallExpr) (op string, cls concClass) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", concClass{}
	}
	fn, ok := e.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", concClass{}
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", concClass{}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", concClass{}
	}
	if !syncNamed(sig.Recv().Type(), "Mutex", "RWMutex") {
		return "", concClass{}
	}
	return fn.Name(), e.classOf(sel.X)
}

// isSyncMethod reports a method named name on sync.<typeName>.
func isSyncMethod(fn *types.Func, typeName, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return syncNamed(sig.Recv().Type(), typeName)
}

// addEdge records a lock-order edge: from held while acquiring to.
func (e *concEngine) addEdge(from, to string, pos token.Pos) {
	k := [2]string{from, to}
	if _, ok := e.edges[k]; !ok {
		e.edges[k] = pos
	}
}

// --- lock rules for the path walk -------------------------------------------

// lockState is the mutable per-path lock state.
type lockState struct {
	held   map[string]int   // mode key -> count (may go negative in helpers)
	defers []map[string]int // net deltas applied at exit, in order
}

func (st *lockState) clone() *lockState {
	c := &lockState{
		held:   make(map[string]int, len(st.held)),
		defers: append([]map[string]int(nil), st.defers...),
	}
	for k, v := range st.held {
		c.held[k] = v
	}
	return c
}

// heldBases returns the base class keys with a positive count in any
// mode.
func (st *lockState) heldBases() map[string]bool {
	out := make(map[string]bool)
	for k, n := range st.held {
		if n > 0 {
			out[baseKey(k)] = true
		}
	}
	return out
}

// concWalker applies the lock rules to one unit. The summary walk
// (record unset) only computes the unit's effects; the record walk also
// logs edges, spawns, call sites and channel classes, and clamps an
// unlock of a lock it does not see held at zero rather than letting the
// count go negative.
type concWalker struct {
	e      *concEngine
	u      *funcUnit
	record bool

	exits    []*lockState // states at each return (defers NOT yet applied)
	fallExit *lockState   // state at body end, nil if unreachable

	acquired map[string]bool
	loopRisk bool
	waits    bool
	usesDone bool
}

func (w *concWalker) walkUnit() {
	w.acquired = make(map[string]bool)
	w.fallExit = walkBody(w, &lockState{held: make(map[string]int)}, w.u.body)
}

// exitNet computes the unit's net lock effect for the summary: the last
// return state (else the fall-through state) with defers applied.
func (w *concWalker) exitNet() map[string]int {
	st := w.fallExit
	if len(w.exits) > 0 {
		st = w.exits[len(w.exits)-1]
	}
	if st == nil {
		return nil
	}
	net := make(map[string]int)
	for k, v := range st.held {
		net[k] += v
	}
	for _, d := range st.defers {
		for k, v := range d {
			net[k] += v
		}
	}
	for k, v := range net {
		if v == 0 {
			delete(net, k)
		}
	}
	return net
}

func (w *concWalker) clone(st *lockState) *lockState { return st.clone() }

// join keeps, per lock, the larger held count of the two paths.
func (w *concWalker) join(a, b *lockState) *lockState {
	out := a.clone()
	for _, m := range []map[string]int{a.held, b.held} {
		for k := range m {
			if b.held[k] > out.held[k] {
				out.held[k] = b.held[k]
			}
		}
	}
	// Defers: keep the longer chain (conditional defers are rare).
	if len(b.defers) > len(out.defers) {
		out.defers = append([]map[string]int(nil), b.defers...)
	}
	return out
}

func (w *concWalker) leaf(st *lockState, s ast.Stmt) *lockState {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.walkExpr(st, x.X)
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			if fn := resolvedCallee(w.e.p.Info, call); fn != nil && isTerminatorFunc(fn) {
				return nil
			}
		}
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.walkExpr(st, r)
		}
		for _, l := range x.Lhs {
			w.walkExpr(st, l)
		}
	case *ast.IncDecStmt:
		w.walkExpr(st, x.X)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(st, v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.walkExpr(st, x.Chan)
		w.walkExpr(st, x.Value)
	case *ast.GoStmt:
		w.walkGo(st, x)
	case *ast.DeferStmt:
		w.walkDefer(st, x)
	}
	return st
}

func (w *concWalker) expr(st *lockState, e ast.Expr) { w.walkExpr(st, e) }

func (w *concWalker) refine(*lockState, ast.Expr, bool) {}

// loop marks loops that can run forever: no condition, or a range over a
// channel (which exits when the channel closes).
func (w *concWalker) loop(st *lockState, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ForStmt:
		if x.Cond == nil {
			w.loopRisk = true
		}
	case *ast.RangeStmt:
		if t := w.e.p.Info.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.loopRisk = true
				w.recordRecv(x.X)
			}
		}
	}
}

func (w *concWalker) backEdge(*lockState) *lockState { return nil }

func (w *concWalker) ret(st *lockState, x *ast.ReturnStmt) {
	for _, r := range x.Results {
		w.walkExpr(st, r)
	}
	w.exits = append(w.exits, st)
}

func (w *concWalker) walkGo(st *lockState, x *ast.GoStmt) {
	// Argument expressions evaluate on this goroutine; the called body
	// does not.
	for _, a := range x.Call.Args {
		w.walkExpr(st, a)
	}
	if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(st, sel.X)
	}
	if w.record {
		target := w.e.eng.unitForCall(x.Call)
		w.e.spawns = append(w.e.spawns, spawnSite{unit: w.u, target: target, pos: x.Pos()})
	}
}

func (w *concWalker) walkDefer(st *lockState, x *ast.DeferStmt) {
	for _, a := range x.Call.Args {
		w.walkExpr(st, a)
	}
	if op, cls := w.e.lockOp(x.Call); op != "" && cls.key != "" {
		delta := map[string]int{}
		switch op {
		case "Unlock":
			delta[cls.key] = -1
		case "RUnlock":
			delta[cls.key+rlockSuffix] = -1
		case "Lock":
			delta[cls.key] = 1
		case "RLock":
			delta[cls.key+rlockSuffix] = 1
		}
		st.defers = append(st.defers, delta)
		return
	}
	if id, ok := ast.Unparen(x.Call.Fun).(*ast.Ident); ok && len(x.Call.Args) == 1 {
		if b, isB := w.e.p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "close" {
			// defer close(ch) still closes the channel at exit.
			if w.record {
				if c := w.e.classOf(x.Call.Args[0]); c.key != "" {
					w.e.closes[c.key] = true
				}
			}
			return
		}
	}
	if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(st, sel.X)
	}
	if callee := w.e.eng.unitForCall(x.Call); callee != nil {
		if sum := w.e.sums[callee]; sum != nil && len(sum.net) > 0 {
			delta := make(map[string]int, len(sum.net))
			for k, v := range sum.net {
				delta[k] = v
			}
			st.defers = append(st.defers, delta)
		}
	}
}

// walkExpr walks an expression in evaluation order, applying call
// effects.
func (w *concWalker) walkExpr(st *lockState, expr ast.Expr) {
	if expr == nil {
		return
	}
	switch x := expr.(type) {
	case *ast.ParenExpr:
		w.walkExpr(st, x.X)
	case *ast.SelectorExpr:
		w.walkExpr(st, x.X)
	case *ast.IndexExpr:
		w.walkExpr(st, x.X)
		w.walkExpr(st, x.Index)
	case *ast.SliceExpr:
		w.walkExpr(st, x.X)
		w.walkExpr(st, x.Low)
		w.walkExpr(st, x.High)
		w.walkExpr(st, x.Max)
	case *ast.StarExpr:
		w.walkExpr(st, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.recordRecv(x.X)
		}
		w.walkExpr(st, x.X)
	case *ast.BinaryExpr:
		w.walkExpr(st, x.X)
		w.walkExpr(st, x.Y)
	case *ast.KeyValueExpr:
		w.walkExpr(st, x.Value)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			w.walkExpr(st, elt)
		}
	case *ast.TypeAssertExpr:
		w.walkExpr(st, x.X)
	case *ast.CallExpr:
		w.walkCall(st, x)
	}
	// Identifiers and literals are leaves; a function literal's body
	// runs when called, not where it appears.
}

// recordRecv logs a channel-receive class for goleak's shutdown-edge
// matching (a goroutine receiving from a channel that something closes
// has a way out).
func (w *concWalker) recordRecv(ch ast.Expr) {
	if !w.record {
		return
	}
	c := w.e.classOf(ch)
	if c.key == "" {
		return
	}
	if w.e.recvs[w.u] == nil {
		w.e.recvs[w.u] = make(map[string]bool)
	}
	w.e.recvs[w.u][c.key] = true
}

// walkCall evaluates a call's operands and applies its lock effect.
func (w *concWalker) walkCall(st *lockState, call *ast.CallExpr) {
	// Immediately-invoked literal: its body runs here.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.walkExpr(st, a)
		}
		if u := w.e.eng.byLit[lit]; u != nil {
			w.applyCallee(st, u, call.Pos())
		}
		return
	}

	// close(ch): register the channel as closeable for goleak.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := w.e.p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "close" && len(call.Args) == 1 {
			w.walkExpr(st, call.Args[0])
			if w.record {
				if c := w.e.classOf(call.Args[0]); c.key != "" {
					w.e.closes[c.key] = true
				}
			}
			return
		}
	}

	// Operands first (receiver, then arguments).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(st, sel.X)
	}
	for _, a := range call.Args {
		w.walkExpr(st, a)
	}

	if op, cls := w.e.lockOp(call); op != "" && cls.key != "" {
		w.applyLockOp(st, call.Pos(), op, cls)
		return
	}

	if fn := resolvedCallee(w.e.p.Info, call); fn != nil {
		switch {
		case isSyncMethod(fn, "WaitGroup", "Wait"):
			w.waits = true
			return
		case fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context":
			w.usesDone = true
			return
		case isSyncMethod(fn, "Cond", "Wait"):
			return // releases and re-acquires its Locker: net zero
		}
	}

	// Plain local call: apply the callee's net effect and record the
	// site for goleak's receive sets and lockorder's edges.
	if callee := w.e.eng.unitForCall(call); callee != nil {
		if w.record {
			w.e.sites = append(w.e.sites, callSite{caller: w.u, callee: callee})
		}
		w.applyCallee(st, callee, call.Pos())
	}
}

// applyCallee folds a callee's summary into the path state: its net
// lock deltas, transitive acquisitions (for edges) and goleak flags.
func (w *concWalker) applyCallee(st *lockState, callee *funcUnit, pos token.Pos) {
	sum := w.e.sums[callee]
	if sum == nil {
		return
	}
	if sum.loopRisk {
		w.loopRisk = true
	}
	if sum.waits {
		w.waits = true
	}
	if sum.usesDone {
		w.usesDone = true
	}
	for k := range sum.acquired {
		w.acquired[k] = true
		if w.record {
			for h := range st.heldBases() {
				if h != k {
					w.e.addEdge(h, k, pos)
				}
			}
		}
	}
	for k, d := range sum.net {
		st.held[k] += d
	}
}

// applyLockOp mutates the path state for one Lock/Unlock-family call.
func (w *concWalker) applyLockOp(st *lockState, pos token.Pos, op string, cls concClass) {
	key := cls.key
	if op == "RLock" || op == "RUnlock" {
		key += rlockSuffix
	}
	switch op {
	case "Lock", "RLock":
		if w.record {
			for h := range st.heldBases() {
				if h != cls.key {
					w.e.addEdge(h, cls.key, pos)
				}
			}
		}
		st.held[key]++
		w.acquired[cls.key] = true
	case "Unlock", "RUnlock":
		if st.held[key] <= 0 && w.record {
			return
		}
		st.held[key]--
	}
	// TryLock/TryRLock acquire conditionally: the success branch is
	// invisible to this walker, so they are ignored.
}
