package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file holds the path-sensitive statement walker behind the
// concurrency engine (conc.go). One concWalker analyzes one function
// unit in one of three modes — summary (collect the net lock effect),
// record (log call sites, spawns, field accesses, edges) and report
// (emit lockbalance findings) — sharing a single traversal so the three
// views can never disagree about what a path does.

// lockState is the mutable per-path analysis state.
type lockState struct {
	held    map[string]int             // mode key -> count (may go negative in helpers)
	touched map[string]bool            // base keys locked/unlocked on this path
	exprs   map[string]map[string]bool // base key -> receiver expr strings held
	defers  []map[string]int           // net deltas applied at exit, in order
	dead    bool                       // path ended in panic/os.Exit
	retPos  token.Pos                  // set on states recorded at a return
}

func newLockState(ctx map[string]bool) *lockState {
	st := &lockState{
		held:    make(map[string]int),
		touched: make(map[string]bool),
		exprs:   make(map[string]map[string]bool),
	}
	for k := range ctx {
		st.held[k] = 1 // contexts are write-mode entry assumptions
	}
	return st
}

func (st *lockState) clone() *lockState {
	c := &lockState{
		held:    make(map[string]int, len(st.held)),
		touched: make(map[string]bool, len(st.touched)),
		exprs:   make(map[string]map[string]bool, len(st.exprs)),
		defers:  append([]map[string]int(nil), st.defers...),
		dead:    st.dead,
		retPos:  st.retPos,
	}
	for k, v := range st.held {
		c.held[k] = v
	}
	for k := range st.touched {
		c.touched[k] = true
	}
	for k, set := range st.exprs {
		cs := make(map[string]bool, len(set))
		for s := range set {
			cs[s] = true
		}
		c.exprs[k] = cs
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

// applied returns the held map with all registered defers applied.
func (st *lockState) applied() map[string]int {
	out := make(map[string]int, len(st.held))
	for k, v := range st.held {
		out[k] = v
	}
	for _, d := range st.defers {
		for k, v := range d {
			out[k] += v
		}
	}
	return out
}

// loopFrame collects break/continue states for one enclosing loop (or
// just breaks, for a switch/select).
type loopFrame struct {
	label     string
	isLoop    bool
	breaks    []*lockState
	continues []*lockState
}

// concWalker walks one unit. Exactly one of the mode flags is normally
// set; summary mode is both unset.
type concWalker struct {
	e      *concEngine
	u      *funcUnit
	record bool
	report bool

	frames   []*loopFrame
	exits    []*lockState // states at each return (defers NOT yet applied)
	fallExit *lockState   // state at body end, nil if unreachable

	findings []Finding
	acquired map[string]bool
	loopRisk bool
	waits    bool
	usesDone bool

	reported map[string]bool // dedup key -> emitted (report mode)
}

// walkUnit analyzes the unit body from the given entry context.
func (w *concWalker) walkUnit(ctx map[string]bool) {
	w.acquired = make(map[string]bool)
	w.reported = make(map[string]bool)
	st := newLockState(ctx)
	out := w.walkStmts(st, w.u.body.List)
	w.fallExit = out
	if w.report {
		w.checkExits(ctx)
	}
}

// exitNet computes the unit's net lock effect for the summary: the
// first available exit state (returns preferred over fall-through) with
// defers applied.
func (w *concWalker) exitNet() map[string]int {
	var st *lockState
	if len(w.exits) > 0 {
		st = w.exits[len(w.exits)-1]
	} else if w.fallExit != nil {
		st = w.fallExit
	}
	if st == nil {
		return nil
	}
	net := make(map[string]int)
	for k, v := range st.applied() {
		if v != 0 {
			net[k] = v
		}
	}
	return net
}

// checkExits reports locks leaked or over-released at function exits,
// relative to the entry context.
func (w *concWalker) checkExits(ctx map[string]bool) {
	check := func(st *lockState, pos token.Pos) {
		for k, n := range st.applied() {
			base := baseKey(k)
			entry := 0
			if ctx[base] && k == base {
				entry = 1
			}
			cls := w.e.classes[base]
			switch {
			case n > entry:
				w.emit(pos, "%s is locked but not unlocked on this path", cls.display())
			case n < 0:
				// Below zero even counting the entry assumption: the
				// over-release was already reported at the unlock site.
			}
		}
	}
	for _, st := range w.exits {
		if st.retPos.IsValid() {
			check(st, st.retPos)
		}
	}
	if w.fallExit != nil && !w.fallExit.dead {
		check(w.fallExit, w.u.body.Rbrace)
	}
}

func (w *concWalker) emit(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.findings = append(w.findings, Finding{
		Analyzer: "lockbalance",
		Pos:      w.e.p.Fset.Position(pos),
		Message:  msg,
	})
}

// --- statement walk ---------------------------------------------------------

// walkStmts walks a statement list; returns the fall-through state or
// nil when the list cannot complete normally.
func (w *concWalker) walkStmts(st *lockState, list []ast.Stmt) *lockState {
	for _, s := range list {
		st = w.walkStmt(st, s)
		if st == nil {
			return nil
		}
		if st.dead {
			return nil // panic/exit path: ends silently
		}
	}
	return st
}

func (w *concWalker) walkStmt(st *lockState, s ast.Stmt) *lockState {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.walkExpr(st, x.X, false)
		return st
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.walkExpr(st, r, false)
		}
		for _, l := range x.Lhs {
			w.walkWrite(st, l)
		}
		return st
	case *ast.IncDecStmt:
		w.walkWrite(st, x.X)
		return st
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(st, v, false)
					}
				}
			}
		}
		return st
	case *ast.SendStmt:
		w.walkExpr(st, x.Chan, false)
		w.walkExpr(st, x.Value, false)
		return st
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.walkExpr(st, r, false)
		}
		ret := st.clone()
		ret.retPos = x.Pos()
		w.exits = append(w.exits, ret)
		return nil
	case *ast.BranchStmt:
		return w.walkBranch(st, x)
	case *ast.BlockStmt:
		return w.walkStmts(st, x.List)
	case *ast.IfStmt:
		return w.walkIf(st, x)
	case *ast.ForStmt:
		return w.walkFor(st, x, "")
	case *ast.RangeStmt:
		return w.walkRange(st, x, "")
	case *ast.SwitchStmt:
		return w.walkSwitch(st, x.Init, x.Tag, x.Body, "")
	case *ast.TypeSwitchStmt:
		return w.walkSwitch(st, x.Init, nil, x.Body, "")
	case *ast.SelectStmt:
		return w.walkSelect(st, x, "")
	case *ast.LabeledStmt:
		switch inner := x.Stmt.(type) {
		case *ast.ForStmt:
			return w.walkFor(st, inner, x.Label.Name)
		case *ast.RangeStmt:
			return w.walkRange(st, inner, x.Label.Name)
		case *ast.SwitchStmt:
			return w.walkSwitch(st, inner.Init, inner.Tag, inner.Body, x.Label.Name)
		case *ast.TypeSwitchStmt:
			return w.walkSwitch(st, inner.Init, nil, inner.Body, x.Label.Name)
		case *ast.SelectStmt:
			return w.walkSelect(st, inner, x.Label.Name)
		default:
			return w.walkStmt(st, x.Stmt)
		}
	case *ast.GoStmt:
		w.walkGo(st, x)
		return st
	case *ast.DeferStmt:
		w.walkDefer(st, x)
		return st
	case *ast.EmptyStmt:
		return st
	default:
		// goto targets and anything unmodeled: give the path up rather
		// than report from a state we do not trust.
		return nil
	}
}

func (w *concWalker) walkBranch(st *lockState, b *ast.BranchStmt) *lockState {
	label := ""
	if b.Label != nil {
		label = b.Label.Name
	}
	switch b.Tok {
	case token.BREAK:
		for i := len(w.frames) - 1; i >= 0; i-- {
			f := w.frames[i]
			if label == "" || f.label == label {
				f.breaks = append(f.breaks, st.clone())
				return nil
			}
		}
	case token.CONTINUE:
		for i := len(w.frames) - 1; i >= 0; i-- {
			f := w.frames[i]
			if !f.isLoop {
				continue
			}
			if label == "" || f.label == label {
				f.continues = append(f.continues, st.clone())
				return nil
			}
		}
	case token.FALLTHROUGH:
		// Treated as ordinary fall-through of the case body.
		return st
	case token.GOTO:
		return nil
	}
	return nil
}

func (w *concWalker) walkIf(st *lockState, x *ast.IfStmt) *lockState {
	if x.Init != nil {
		if st = w.walkStmt(st, x.Init); st == nil {
			return nil
		}
	}
	w.walkExpr(st, x.Cond, false)
	thenSt := w.walkStmts(st.clone(), x.Body.List)
	var elseSt *lockState
	if x.Else != nil {
		elseSt = w.walkStmt(st.clone(), x.Else)
	} else {
		elseSt = st
	}
	return w.merge(x.Body.Lbrace, thenSt, elseSt)
}

// merge joins two fall-through states, reporting a lockbalance finding
// when they disagree on any lock's held count.
func (w *concWalker) merge(pos token.Pos, a, b *lockState) *lockState {
	if a == nil || a.dead {
		return b
	}
	if b == nil || b.dead {
		return a
	}
	out := a.clone()
	keys := make(map[string]bool)
	for k := range a.held {
		keys[k] = true
	}
	for k := range b.held {
		keys[k] = true
	}
	for k := range keys {
		if a.held[k] != b.held[k] {
			if w.report {
				w.emit(pos, "%s is held on some but not all paths joining here", w.e.classes[baseKey(k)].display())
			}
			if b.held[k] > a.held[k] {
				out.held[k] = b.held[k] // keep the max to limit cascades
			}
		}
	}
	for k := range b.touched {
		out.touched[k] = true
	}
	for k, set := range b.exprs {
		if out.exprs[k] == nil {
			out.exprs[k] = make(map[string]bool)
		}
		for s := range set {
			out.exprs[k][s] = true
		}
	}
	// Defers: keep the longer chain (conditional defers are rare; the
	// net of a conditionally-registered unlock shows up as a held-count
	// mismatch above when it matters).
	if len(b.defers) > len(out.defers) {
		out.defers = append([]map[string]int(nil), b.defers...)
	}
	return out
}

func (w *concWalker) mergeAll(pos token.Pos, states []*lockState) *lockState {
	var out *lockState
	for _, st := range states {
		if out == nil {
			out = st
			continue
		}
		out = w.merge(pos, out, st)
	}
	return out
}

func (w *concWalker) walkFor(st *lockState, x *ast.ForStmt, label string) *lockState {
	if x.Init != nil {
		if st = w.walkStmt(st, x.Init); st == nil {
			return nil
		}
	}
	if x.Cond == nil {
		w.loopRisk = true
	}
	if x.Cond != nil {
		w.walkExpr(st, x.Cond, false)
	}
	frame := &loopFrame{label: label, isLoop: true}
	w.frames = append(w.frames, frame)
	bodyOut := w.walkStmts(st.clone(), x.Body.List)
	if bodyOut != nil && x.Post != nil {
		bodyOut = w.walkStmt(bodyOut, x.Post)
	}
	w.frames = w.frames[:len(w.frames)-1]

	w.checkLoopConsistency(x.Body.Lbrace, st, bodyOut, frame.continues)

	// Natural exit resumes from the entry state (condition false on some
	// iteration); an infinite loop exits only through breaks.
	var exitStates []*lockState
	if x.Cond != nil {
		exitStates = append(exitStates, st)
	}
	exitStates = append(exitStates, frame.breaks...)
	return w.mergeAll(x.Body.Lbrace, exitStates)
}

func (w *concWalker) walkRange(st *lockState, x *ast.RangeStmt, label string) *lockState {
	w.walkExpr(st, x.X, false)
	if t := w.e.p.Info.TypeOf(x.X); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			w.loopRisk = true
			// Range over a channel exits when the channel closes.
			w.recordRecv(x.X)
		}
	}
	frame := &loopFrame{label: label, isLoop: true}
	w.frames = append(w.frames, frame)
	bodyOut := w.walkStmts(st.clone(), x.Body.List)
	w.frames = w.frames[:len(w.frames)-1]

	w.checkLoopConsistency(x.Body.Lbrace, st, bodyOut, frame.continues)

	exitStates := append([]*lockState{st}, frame.breaks...)
	return w.mergeAll(x.Body.Lbrace, exitStates)
}

// checkLoopConsistency reports when a loop body ends an iteration with a
// different lock state than it started with: the second iteration would
// double-lock or double-unlock.
func (w *concWalker) checkLoopConsistency(pos token.Pos, entry *lockState, bodyOut *lockState, continues []*lockState) {
	if !w.report {
		return
	}
	for _, out := range append([]*lockState{bodyOut}, continues...) {
		if out == nil || out.dead {
			continue
		}
		keys := make(map[string]bool)
		for k := range entry.held {
			keys[k] = true
		}
		for k := range out.held {
			keys[k] = true
		}
		for k := range keys {
			if entry.held[k] != out.held[k] {
				w.emit(pos, "%s held count changes across loop iterations (%d at entry, %d at end)",
					w.e.classes[baseKey(k)].display(), entry.held[k], out.held[k])
			}
		}
	}
}

func (w *concWalker) walkSwitch(st *lockState, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) *lockState {
	if init != nil {
		if st = w.walkStmt(st, init); st == nil {
			return nil
		}
	}
	if tag != nil {
		w.walkExpr(st, tag, false)
	}
	frame := &loopFrame{label: label}
	w.frames = append(w.frames, frame)
	var outs []*lockState
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, ce := range cc.List {
			w.walkExpr(st, ce, false)
		}
		if out := w.walkStmts(st.clone(), cc.Body); out != nil {
			outs = append(outs, out)
		}
	}
	w.frames = w.frames[:len(w.frames)-1]
	if !hasDefault {
		outs = append(outs, st)
	}
	outs = append(outs, frame.breaks...)
	return w.mergeAll(body.Lbrace, outs)
}

func (w *concWalker) walkSelect(st *lockState, x *ast.SelectStmt, label string) *lockState {
	frame := &loopFrame{label: label}
	w.frames = append(w.frames, frame)
	var outs []*lockState
	for _, c := range x.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		branch := st.clone()
		if cc.Comm != nil {
			if b := w.walkStmt(branch, cc.Comm); b != nil {
				branch = b
			}
		}
		if out := w.walkStmts(branch, cc.Body); out != nil {
			outs = append(outs, out)
		}
	}
	w.frames = w.frames[:len(w.frames)-1]
	outs = append(outs, frame.breaks...)
	return w.mergeAll(x.Body.Lbrace, outs)
}

func (w *concWalker) walkGo(st *lockState, x *ast.GoStmt) {
	// Argument expressions evaluate on this goroutine; the called body
	// does not.
	for _, a := range x.Call.Args {
		w.walkExpr(st, a, false)
	}
	if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(st, sel.X, false)
	}
	if w.record {
		target := w.e.eng.unitForCall(x.Call)
		w.e.spawns = append(w.e.spawns, spawnSite{unit: w.u, target: target, pos: x.Pos()})
	}
}

func (w *concWalker) walkDefer(st *lockState, x *ast.DeferStmt) {
	for _, a := range x.Call.Args {
		w.walkExpr(st, a, false)
	}
	if op, cls, expr := w.e.lockOp(x.Call); op != "" && cls.key != "" {
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
		st.touched[cls.key] = true
		_ = expr
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
		w.walkExpr(st, sel.X, false)
	}
	if callee := w.e.eng.unitForCall(x.Call); callee != nil {
		if sum := w.e.sums[callee]; sum != nil && len(sum.net) > 0 {
			delta := make(map[string]int, len(sum.net))
			for k, v := range sum.net {
				delta[k] = v
				st.touched[baseKey(k)] = true
			}
			st.defers = append(st.defers, delta)
		}
	}
}

// --- expression walk --------------------------------------------------------

// walkWrite records an assignment target: field writes for atomicmix,
// plus any calls inside index expressions.
func (w *concWalker) walkWrite(st *lockState, target ast.Expr) {
	switch x := ast.Unparen(target).(type) {
	case *ast.SelectorExpr:
		w.walkExpr(st, x.X, false)
		w.recordFieldAccess(st, x, true, false)
	case *ast.IndexExpr:
		w.walkWrite(st, x.X)
		w.walkExpr(st, x.Index, false)
	case *ast.StarExpr:
		w.walkWrite(st, x.X)
	case *ast.Ident:
		// Plain variable: nothing to record.
	default:
		w.walkExpr(st, target, false)
	}
}

// walkExpr walks an expression in evaluation order, applying call
// effects and recording field accesses. addrOf marks that the parent
// took the operand's address outside an atomic call.
func (w *concWalker) walkExpr(st *lockState, expr ast.Expr, addrOf bool) {
	if expr == nil {
		return
	}
	switch x := expr.(type) {
	case *ast.ParenExpr:
		w.walkExpr(st, x.X, addrOf)
	case *ast.Ident, *ast.BasicLit:
		// leaf
	case *ast.SelectorExpr:
		w.walkExpr(st, x.X, false)
		if sel := w.e.p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			w.recordFieldAccess(st, x, addrOf, false)
		}
	case *ast.IndexExpr:
		w.walkExpr(st, x.X, addrOf)
		w.walkExpr(st, x.Index, false)
	case *ast.SliceExpr:
		w.walkExpr(st, x.X, false)
		w.walkExpr(st, x.Low, false)
		w.walkExpr(st, x.High, false)
		w.walkExpr(st, x.Max, false)
	case *ast.StarExpr:
		w.walkExpr(st, x.X, false)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			w.walkExpr(st, x.X, true)
			return
		}
		if x.Op == token.ARROW {
			w.recordRecv(x.X)
		}
		w.walkExpr(st, x.X, false)
	case *ast.BinaryExpr:
		w.walkExpr(st, x.X, false)
		w.walkExpr(st, x.Y, false)
	case *ast.KeyValueExpr:
		w.walkExpr(st, x.Value, false)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			w.walkExpr(st, elt, false)
		}
	case *ast.TypeAssertExpr:
		w.walkExpr(st, x.X, false)
	case *ast.FuncLit:
		// Body runs when called; nothing happens at evaluation.
	case *ast.CallExpr:
		w.walkCall(st, x)
	}
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
			w.walkExpr(st, a, false)
		}
		if u := w.e.eng.byLit[lit]; u != nil {
			w.applyCallee(st, u, call.Pos())
		}
		return
	}

	// atomic.XxxInt64(&x.f, ...): classify the target field as atomic,
	// not as a plain address-taken access.
	if w.isAtomicCall(call) {
		for i, a := range call.Args {
			if i == 0 {
				if un, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && un.Op == token.AND {
					if selx, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
						w.walkExpr(st, selx.X, false)
						if w.report {
							if c := w.e.fieldClass(selx); c.key != "" {
								w.e.atomicOps[c.key] = append(w.e.atomicOps[c.key], call.Pos())
							}
						}
						continue
					}
				}
			}
			w.walkExpr(st, a, false)
		}
		return
	}

	// close(ch): register the channel as closeable for goleak.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := w.e.p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "close" && len(call.Args) == 1 {
			w.walkExpr(st, call.Args[0], false)
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
		w.walkExpr(st, sel.X, false)
	}
	for _, a := range call.Args {
		w.walkExpr(st, a, false)
	}

	// Lock operations.
	if op, cls, exprStr := w.e.lockOp(call); op != "" && cls.key != "" {
		w.applyLockOp(st, call.Pos(), op, cls, exprStr)
		return
	}

	fn := resolvedCallee(w.e.p.Info, call)
	if fn != nil {
		if isTerminatorFunc(fn) {
			st.dead = true
			return
		}
		if isSyncMethod(fn, "WaitGroup", "Wait") {
			w.waits = true
			return
		}
		if fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
			w.usesDone = true
			return
		}
		if isSyncMethod(fn, "Cond", "Wait") {
			return // releases and re-acquires its Locker: net zero
		}
	}

	// Plain local call: apply the callee's net effect and record the
	// site for context inference and lock-order edges.
	if callee := w.e.eng.unitForCall(call); callee != nil {
		if w.record {
			w.e.sites = append(w.e.sites, callSite{caller: w.u, callee: callee, held: st.heldBases()})
		}
		w.applyCallee(st, callee, call.Pos())
	}
}

// applyCallee folds a callee's summary into the path state: its net
// lock deltas, transitive acquisitions (for edges and loop risk).
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
		if w.report {
			for h := range st.heldBases() {
				if h != k {
					w.e.addEdge(h, k, pos)
				}
			}
		}
	}
	for k, d := range sum.net {
		st.held[k] += d
		st.touched[baseKey(k)] = true
	}
}

// applyLockOp mutates the path state for one Lock/Unlock-family call.
func (w *concWalker) applyLockOp(st *lockState, pos token.Pos, op string, cls concClass, exprStr string) {
	wkey, rkey := cls.key, cls.key+rlockSuffix
	switch op {
	case "Lock", "RLock":
		key := wkey
		if op == "RLock" {
			key = rkey
		}
		if w.report {
			// Self-deadlock: re-locking a write lock this path already
			// holds via the same receiver expression or the inferred
			// entry context. (Distinct instances of one type share a
			// class and are deliberately not reported.)
			if op == "Lock" && st.held[wkey] > 0 && (st.exprs[wkey][exprStr] || !st.touched[cls.key]) {
				w.emit(pos, "Lock of %s while already held on this path (possible self-deadlock)", cls.display())
			}
			for h := range st.heldBases() {
				if h != cls.key {
					w.e.addEdge(h, cls.key, pos)
				}
			}
		}
		st.held[key]++
		st.touched[cls.key] = true
		w.acquired[cls.key] = true
		if st.exprs[key] == nil {
			st.exprs[key] = make(map[string]bool)
		}
		st.exprs[key][exprStr] = true
	case "Unlock", "RUnlock":
		key := wkey
		if op == "RUnlock" {
			key = rkey
		}
		if st.held[key] <= 0 {
			if w.report {
				if st.touched[cls.key] {
					w.emit(pos, "%s of %s which is not held on this path (possible double unlock)", op, cls.display())
				} else {
					w.emit(pos, "%s of %s which this function never locked", op, cls.display())
				}
				return // clamp in report mode to avoid cascades
			}
		}
		st.held[key]--
		st.touched[cls.key] = true
	case "TryLock", "TryRLock":
		// Conditional acquisition: the success branch is invisible to
		// this walker; ignored (none in the tree).
	}
}

// recordFieldAccess logs one field read/write for atomicmix. It runs in
// the report walk, not the record walk, because the held set must
// include the unit's inferred entry context — accesses inside a helper
// called under a lock are guarded accesses.
func (w *concWalker) recordFieldAccess(st *lockState, sel *ast.SelectorExpr, write, viaAddr bool) {
	if !w.report {
		return
	}
	cls := w.e.fieldClass(sel)
	if cls.key == "" {
		return
	}
	w.e.accesses = append(w.e.accesses, fieldAccess{
		class:   cls,
		pos:     sel.Sel.Pos(),
		write:   write,
		held:    st.heldBases(),
		inCtor:  w.unitIsCtorOf(cls.owner),
		viaAddr: viaAddr,
	})
}

// fieldClass resolves a field selector to a class, returning the zero
// class for fields of types outside this package or of exempt type
// (atomics, sync primitives, channels, funcs), and registering mutex-
// typed fields as guard candidates.
func (e *concEngine) fieldClass(sel *ast.SelectorExpr) concClass {
	s := e.p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return concClass{}
	}
	cls := e.classOf(sel)
	if cls.key == "" || cls.owner == "" {
		return concClass{}
	}
	// Only audit fields of types declared in this package.
	if !strings.HasPrefix(cls.owner, e.p.Path+".") {
		return concClass{}
	}
	ft := s.Obj().Type()
	if syncNamed(ft, "Mutex", "RWMutex") {
		e.guards[cls.key] = true
		return concClass{}
	}
	if concExemptFieldType(ft) {
		return concClass{}
	}
	return cls
}

// unitIsCtorOf reports whether the walker's unit is a constructor of
// owner ("pkg.Type"): a declared function returning that type (or a
// pointer to it). Constructors initialize fields before the value is
// shared; their accesses are exempt from guard inference.
func (w *concWalker) unitIsCtorOf(owner string) bool {
	u := w.u
	if u.enclosing != nil {
		u = u.enclosing
	}
	if u.decl == nil || u.obj == nil {
		return false
	}
	sig, ok := u.obj.Type().(*types.Signature)
	if !ok || sig.Results() == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if ptr, okp := t.(*types.Pointer); okp {
			t = ptr.Elem()
		}
		if n, okn := t.(*types.Named); okn && n.Obj().Pkg() != nil {
			if n.Obj().Pkg().Path()+"."+n.Obj().Name() == owner {
				return true
			}
		}
	}
	return false
}

// isAtomicCall reports a direct call of a sync/atomic package function.
func (w *concWalker) isAtomicCall(call *ast.CallExpr) bool {
	fn := resolvedCallee(w.e.p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Package functions only; methods of atomic.Int64 etc. are typed
	// atomics, exempt by construction.
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isTerminatorFunc reports callees that end the goroutine: the path
// needs no balance (or obligation) checking past them. Shared by the
// concurrency walker and resleak's lifecycle walker.
func isTerminatorFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return fn.Name() == "panic"
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic")
	}
	return false
}

// lockOp classifies a call as a mutex operation, resolving the lock
// class of its receiver. Returns ("", zero, "") for non-lock calls.
func (e *concEngine) lockOp(call *ast.CallExpr) (op string, cls concClass, exprStr string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", concClass{}, ""
	}
	fn, ok := e.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", concClass{}, ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", concClass{}, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", concClass{}, ""
	}
	if !syncNamed(sig.Recv().Type(), "Mutex", "RWMutex") {
		return "", concClass{}, ""
	}
	cls = e.classOf(sel.X)
	return fn.Name(), cls, types.ExprString(sel.X)
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

// sortFindings orders findings by position for stable output.
func sortFindings(out []Finding) []Finding {
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
