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
// lockorder, lockbalance, goleak and atomicmix analyzers. It is a second
// effect domain over the effectEngine framework (effects.go), alongside
// taint: where taint summaries describe data flowing through a function,
// lock summaries describe the function's net effect on the lock state —
// which locks it acquires, releases, or requires held at entry.
//
// The engine runs four phases per package:
//
//  1. Summary fixpoint: every function unit is walked path-sensitively,
//     computing its net lock effect (Lock minus Unlock per class, as
//     seen by a caller) and the set of lock classes it transitively
//     acquires. Summaries only grow/stabilize, so recursion terminates.
//  2. Call-context inference: an unexported function called only while a
//     lock is held inherits that lock as an entry assumption — this is
//     how "caller must hold w.mu" helpers (barrierLocked, kick) are
//     analyzed without annotations. ctx(f) is the intersection over all
//     plain local call sites of (locks held at the site ∪ ctx(caller));
//     go-statement spawn sites, exported functions and function values
//     contribute the empty set. The fixpoint is decreasing from ⊤.
//  3. Report walk: every unit is re-walked with its inferred context as
//     the entry lock state, collecting lockbalance findings (unbalanced
//     paths, double lock/unlock, loop inconsistencies), lock-acquisition
//     edges (lockorder), goroutine spawn sites (goleak) and classified
//     field accesses (atomicmix).
//  4. The four analyzers render their views of the shared result.
//
// Precision choices, deliberately traded for signal on the real tree:
//
//   - Lock classes for struct fields are keyed by the *static type* of
//     the owner ("pkg.Type.mu"), so two instances of one type alias to
//     one class. Same-class nesting across distinct instances is
//     therefore not reported as a self-deadlock (only identical
//     receiver expressions, or context-implied holds, are).
//   - sync.Cond.Wait is treated as a no-op on the lock state: it
//     releases and re-acquires its locker, which nets to zero.
//   - TryLock/TryRLock acquire conditionally and are ignored.
//   - goto terminates the analyzed path (none in the tree).

// --- lock classes -----------------------------------------------------------

// concClass describes one lock or field "class" — the unit of aliasing.
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
	// helpers, -1 for unlock helpers). Set from the first-converged
	// exit; exit disagreements are lockbalance findings, not summary
	// state.
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

// callSite records one plain local call for context inference.
type callSite struct {
	caller *funcUnit
	callee *funcUnit
	held   map[string]bool // base class keys held at the site
}

// spawnSite records one go statement for goleak.
type spawnSite struct {
	unit   *funcUnit // spawning unit
	target *funcUnit // spawned local unit (nil if cross-package: skipped)
	pos    token.Pos
}

// fieldAccess is one syntactic access of a struct field of a type
// declared in this package, classified for atomicmix.
type fieldAccess struct {
	class   concClass
	pos     token.Pos
	write   bool
	held    map[string]bool // base class keys held at the access
	inCtor  bool            // inside a function returning the owner type
	viaAddr bool            // &x.f escaping to a non-atomic callee
}

// concEngine is the per-package concurrency analysis state.
type concEngine struct {
	p       *Package
	eng     *effectEngine
	sums    map[*funcUnit]*lockSummary
	ctxs    map[*funcUnit]map[string]bool // inferred entry-held base classes
	sites   []callSite
	classes map[string]concClass // key -> class metadata

	// report-walk outputs
	balance   []Finding
	edges     map[[2]string]token.Pos // held-before-acquired pairs of base keys
	spawns    []spawnSite
	accesses  []fieldAccess
	atomicOps map[string][]token.Pos        // field class key -> atomic.* call sites
	closes    map[string]bool               // classes of channels passed to close()
	guards    map[string]bool               // classes that are mutex-typed fields
	recvs     map[*funcUnit]map[string]bool // channel classes a unit receives from
}

// concCache memoizes one engine run per package so the four analyzers
// share it; sharoes-vet analyzes packages concurrently after parallel
// loading, hence the lock.
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
		p:         p,
		eng:       newEffectEngine(p),
		sums:      make(map[*funcUnit]*lockSummary),
		ctxs:      make(map[*funcUnit]map[string]bool),
		classes:   make(map[string]concClass),
		edges:     make(map[[2]string]token.Pos),
		atomicOps: make(map[string][]token.Pos),
		closes:    make(map[string]bool),
		guards:    make(map[string]bool),
		recvs:     make(map[*funcUnit]map[string]bool),
	}
	e.run()
	concCache[p] = e
	return e
}

func (e *concEngine) run() {
	for _, u := range e.eng.units {
		e.sums[u] = newLockSummary()
	}
	// Phase 1: summary fixpoint (entry state empty, no reporting).
	e.eng.fixpoint(func(u *funcUnit) bool {
		w := &concWalker{e: e, u: u}
		w.walkUnit(nil)
		return e.mergeSummary(u, w)
	})
	// Phase 2: record call sites with local holds, then infer contexts.
	for _, u := range e.eng.units {
		w := &concWalker{e: e, u: u, record: true}
		w.walkUnit(nil)
	}
	e.inferContexts()
	// Phase 3: report walk with inferred contexts as entry state.
	for _, u := range e.eng.units {
		w := &concWalker{e: e, u: u, report: true}
		w.walkUnit(e.ctxs[u])
		e.balance = append(e.balance, w.findings...)
	}
}

// mergeSummary folds one walk into u's summary; reports growth.
func (e *concEngine) mergeSummary(u *funcUnit, w *concWalker) bool {
	sum := e.sums[u]
	changed := false
	net := w.exitNet()
	for k, d := range net {
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

// inferContexts runs the decreasing context fixpoint over the recorded
// call sites. ⊤ is represented by absence from e.ctxs with eligible[u]
// still true.
func (e *concEngine) inferContexts() {
	eligible := make(map[*funcUnit]bool)
	sitesOf := make(map[*funcUnit][]callSite)
	for _, s := range e.sites {
		sitesOf[s.callee] = append(sitesOf[s.callee], s)
	}
	valueRef := e.valueReferenced()
	for _, u := range e.eng.units {
		switch {
		case u.decl != nil && u.obj != nil && u.obj.Exported():
			// Callable from outside the package: no entry assumption.
		case valueRef[u]:
			// Used as a function value (stored, passed to AfterFunc,
			// spawned): runs with no caller-held locks assumed.
		case len(sitesOf[u]) == 0:
			// Never locally called: nothing to infer from.
		default:
			eligible[u] = true
		}
	}
	for u := range e.ctxs {
		delete(e.ctxs, u)
	}
	for round := 0; round < maxEffectRounds; round++ {
		changed := false
		for u := range eligible {
			var inter map[string]bool
			top := true
			for _, s := range sitesOf[u] {
				contrib := make(map[string]bool)
				for k := range s.held {
					contrib[k] = true
				}
				if eligible[s.caller] {
					if cctx, ok := e.ctxs[s.caller]; ok {
						for k := range cctx {
							contrib[k] = true
						}
					} else {
						// Caller still at ⊤: this site constrains
						// nothing yet.
						continue
					}
				}
				if top {
					inter, top = contrib, false
					continue
				}
				for k := range inter {
					if !contrib[k] {
						delete(inter, k)
					}
				}
			}
			if top {
				continue // all sites unresolved this round
			}
			old, had := e.ctxs[u]
			if !had || len(old) != len(inter) {
				e.ctxs[u] = inter
				changed = true
				continue
			}
			for k := range inter {
				if !old[k] {
					e.ctxs[u] = inter
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	// Anything still at ⊤ after bounded rounds (mutual recursion among
	// helpers with no resolved entry) gets no assumption.
	for u := range eligible {
		if _, ok := e.ctxs[u]; !ok {
			e.ctxs[u] = nil
		}
	}
}

// valueReferenced finds declared functions and literals used as values
// rather than called: stored, returned, passed as arguments (other than
// being the operand of a call, go or defer statement).
func (e *concEngine) valueReferenced() map[*funcUnit]bool {
	out := make(map[*funcUnit]bool)
	calledFuns := make(map[ast.Expr]bool)
	for _, file := range e.p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				calledFuns[ast.Unparen(call.Fun)] = true
			}
			return true
		})
	}
	for _, file := range e.p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if calledFuns[x] {
					return true
				}
				if fn, ok := e.p.Info.Uses[x].(*types.Func); ok {
					if u := e.eng.byObj[fn]; u != nil {
						out[u] = true
					}
				}
			case *ast.SelectorExpr:
				if calledFuns[x] {
					return false // method call; receiver still walked via x.X
				}
				if fn, ok := e.p.Info.Uses[x.Sel].(*types.Func); ok {
					if u := e.eng.byObj[fn]; u != nil {
						out[u] = true // method value
					}
				}
			case *ast.FuncLit:
				if calledFuns[x] {
					return true
				}
				// Spawned or deferred directly? Those are direct
				// invocations, found via the enclosing statement.
				if u := e.eng.byLit[x]; u != nil {
					out[u] = true
				}
			}
			return true
		})
	}
	// Un-mark literals whose only non-call use is `go lit()` / `defer
	// lit()`: the CallExpr check above already covers them (the literal
	// IS the call operand), so nothing to do — go/defer operands were in
	// calledFuns.
	return out
}

// --- class resolution -------------------------------------------------------

// classOf resolves an expression to its lock/field class. Returns the
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

// --- type predicates --------------------------------------------------------

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

// pkgOfType returns the defining package path of t's core named type.
func pkgOfType(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

// containsSyncPrimitive reports whether t directly (not behind a
// pointer) contains a sync.Mutex, RWMutex, WaitGroup, Cond or Once —
// the types whose values must never be copied once used.
func containsSyncPrimitive(t types.Type) bool {
	return containsSyncPrim(t, make(map[types.Type]bool))
}

func containsSyncPrim(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return false // a pointer to a lock is how locks should travel
	}
	if syncNamed(t, "Mutex", "RWMutex", "WaitGroup", "Cond", "Once") {
		return true
	}
	switch u := t.(type) {
	case *types.Named:
		return containsSyncPrim(u.Underlying(), seen)
	case *types.Alias:
		return containsSyncPrim(types.Unalias(u), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsSyncPrim(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsSyncPrim(u.Elem(), seen)
	}
	return false
}

// concExemptFieldType reports field types atomicmix never tracks:
// sync/atomic typed values are atomic by construction, sync primitives
// synchronize themselves, channels synchronize their users.
func concExemptFieldType(t types.Type) bool {
	if pkgOfType(t) == "sync/atomic" || pkgOfType(t) == "sync" {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if _, ok := t.Underlying().(*types.Signature); ok {
		return true
	}
	return false
}
