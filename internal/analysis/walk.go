package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the statement walk shared by the path-sensitive
// analyzers (lockorder and goleak through the concurrency engine in
// conc.go, resleak through its obligation rules in resleak.go). The
// walker owns control flow: statement sequencing, if/else, for and range
// loops, switch, type switch and select, labels, break, continue,
// fallthrough and goto. An analyzer supplies its per-path state and the
// leaf rules over it; the walker clones the state where paths split and
// joins it where they meet.

// pathRules is one analyzer's half of the walk. S is the per-path state,
// a pointer type whose zero value means "no path reaches here".
type pathRules[S comparable] interface {
	clone(st S) S
	// join merges two live states where paths meet; either may be
	// consumed.
	join(a, b S) S
	// leaf applies a simple statement: expression, assignment, inc/dec,
	// declaration, send, go or defer. The zero S ends the path (a call
	// that never returns).
	leaf(st S, s ast.Stmt) S
	// expr evaluates a condition, switch tag, case or range operand.
	expr(st S, e ast.Expr)
	// refine narrows st to the side of an if where cond is taken.
	refine(st S, cond ast.Expr, taken bool)
	// loop notes entry into a for or range statement.
	loop(st S, s ast.Stmt)
	// backEdge maps the state at the end of an iteration (or at a
	// continue) to what it adds to the loop's exit; the zero S adds
	// nothing.
	backEdge(st S) S
	// ret sees a path leave through a return statement.
	ret(st S, r *ast.ReturnStmt)
}

// pathExit is a state leaving a breakable statement early: through a
// break, or through a continue to the next iteration of a loop.
type pathExit[S comparable] struct {
	st   S
	cont bool
}

// pathFrame is one enclosing breakable statement.
type pathFrame[S comparable] struct {
	label string
	loop  bool // continue targets loops only
	outs  []pathExit[S]
}

// pathWalker walks one function body.
type pathWalker[S comparable] struct {
	rules  pathRules[S]
	frames []*pathFrame[S]
}

// walkBody walks body from st and returns the state falling off its
// end, or the zero S when no path does.
func walkBody[S comparable](rules pathRules[S], st S, body *ast.BlockStmt) S {
	w := &pathWalker[S]{rules: rules}
	return w.stmts(st, body.List)
}

func (w *pathWalker[S]) stmts(st S, list []ast.Stmt) S {
	var none S
	for _, s := range list {
		if st = w.stmt(st, s); st == none {
			return none
		}
	}
	return st
}

func (w *pathWalker[S]) stmt(st S, s ast.Stmt) S {
	var none S
	switch x := s.(type) {
	case *ast.ReturnStmt:
		w.rules.ret(st, x)
		return none
	case *ast.BranchStmt:
		return w.branch(st, x)
	case *ast.BlockStmt:
		return w.stmts(st, x.List)
	case *ast.IfStmt:
		return w.ifStmt(st, x)
	case *ast.LabeledStmt:
		return w.breakable(st, x.Stmt, x.Label.Name)
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.breakable(st, s, "")
	case *ast.EmptyStmt:
		return st
	default:
		return w.rules.leaf(st, s)
	}
}

// breakable walks a statement that break (and for loops, continue) can
// target under label.
func (w *pathWalker[S]) breakable(st S, s ast.Stmt, label string) S {
	switch x := s.(type) {
	case *ast.ForStmt:
		return w.forStmt(st, x, label)
	case *ast.RangeStmt:
		w.rules.expr(st, x.X)
		w.rules.loop(st, x)
		f := w.push(label, true)
		body := w.stmts(w.rules.clone(st), x.Body.List)
		w.frames = w.frames[:len(w.frames)-1]
		return w.loopExit(st, f, body) // a range may run zero times
	case *ast.SwitchStmt:
		return w.cases(st, x.Init, x.Tag, x.Body, label, false)
	case *ast.TypeSwitchStmt:
		return w.cases(st, x.Init, nil, x.Body, label, false)
	case *ast.SelectStmt:
		return w.cases(st, nil, nil, x.Body, label, true)
	default:
		return w.stmt(st, s)
	}
}

func (w *pathWalker[S]) push(label string, loop bool) *pathFrame[S] {
	f := &pathFrame[S]{label: label, loop: loop}
	w.frames = append(w.frames, f)
	return f
}

// join merges two states, either of which may be the zero S.
func (w *pathWalker[S]) join(a, b S) S {
	var none S
	switch {
	case a == none:
		return b
	case b == none:
		return a
	}
	return w.rules.join(a, b)
}

func (w *pathWalker[S]) ifStmt(st S, x *ast.IfStmt) S {
	var none S
	if x.Init != nil {
		if st = w.stmt(st, x.Init); st == none {
			return none
		}
	}
	w.rules.expr(st, x.Cond)
	then := w.rules.clone(st)
	w.rules.refine(then, x.Cond, true)
	w.rules.refine(st, x.Cond, false)
	out := w.stmts(then, x.Body.List)
	if x.Else != nil {
		return w.join(out, w.stmt(st, x.Else))
	}
	return w.join(out, st)
}

func (w *pathWalker[S]) forStmt(st S, x *ast.ForStmt, label string) S {
	var none S
	if x.Init != nil {
		if st = w.stmt(st, x.Init); st == none {
			return none
		}
	}
	w.rules.loop(st, x)
	if x.Cond != nil {
		w.rules.expr(st, x.Cond)
	}
	f := w.push(label, true)
	body := w.stmts(w.rules.clone(st), x.Body.List)
	if body != none && x.Post != nil {
		body = w.stmt(body, x.Post)
	}
	w.frames = w.frames[:len(w.frames)-1]
	if x.Cond == nil {
		st = none // only a break (or a back edge, per the rules) leaves
	}
	return w.loopExit(st, f, body)
}

// loopExit joins the states leaving a loop: out (the condition failing
// before the first iteration), then the back edges and breaks in the
// order the walk met them.
func (w *pathWalker[S]) loopExit(out S, f *pathFrame[S], body S) S {
	var none S
	if body != none {
		out = w.join(out, w.rules.backEdge(body))
	}
	for _, e := range f.outs {
		if e.cont {
			out = w.join(out, w.rules.backEdge(e.st))
		} else {
			out = w.join(out, e.st)
		}
	}
	return out
}

// cases walks a switch, type switch or select body: every clause from a
// copy of the entry state, joined. Without a default clause the entry
// state itself also leaves (no case matched); a select always runs one
// of its clauses, and select{} never completes.
func (w *pathWalker[S]) cases(st S, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string, isSelect bool) S {
	var none S
	if init != nil {
		if st = w.stmt(st, init); st == none {
			return none
		}
	}
	if tag != nil {
		w.rules.expr(st, tag)
	}
	f := w.push(label, false)
	var out S
	exhaustive := isSelect
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.rules.expr(st, e)
			}
			exhaustive = exhaustive || cc.List == nil
			out = w.join(out, w.stmts(w.rules.clone(st), cc.Body))
		case *ast.CommClause:
			branch := w.rules.clone(st)
			if cc.Comm != nil {
				branch = w.stmt(branch, cc.Comm)
			}
			if branch != none {
				out = w.join(out, w.stmts(branch, cc.Body))
			}
		}
	}
	w.frames = w.frames[:len(w.frames)-1]
	if !exhaustive {
		out = w.join(out, st)
	}
	for _, e := range f.outs {
		out = w.join(out, e.st)
	}
	return out
}

// branch sends a break or continue state to the statement it targets.
// fallthrough leaves the case body like its end does; goto ends the
// analyzed path.
func (w *pathWalker[S]) branch(st S, b *ast.BranchStmt) S {
	var none S
	if b.Tok == token.FALLTHROUGH {
		return st
	}
	if b.Tok != token.BREAK && b.Tok != token.CONTINUE {
		return none
	}
	label := ""
	if b.Label != nil {
		label = b.Label.Name
	}
	for i := len(w.frames) - 1; i >= 0; i-- {
		f := w.frames[i]
		if b.Tok == token.CONTINUE && !f.loop {
			continue
		}
		if label == "" || f.label == label {
			f.outs = append(f.outs, pathExit[S]{st: st, cont: b.Tok == token.CONTINUE})
			return none
		}
	}
	return none
}

// isTerminatorFunc reports callees that end the goroutine: the path
// needs no checking past them.
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
