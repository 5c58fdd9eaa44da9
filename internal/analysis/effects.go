package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the interprocedural effect-summary framework shared by the
// taint engine (taint.go) and the concurrency engine (conc.go). An
// "effect" is any fact about a function body that callers inherit — taint
// flowing through results, locks acquired or net-held, goroutine loops
// started. The framework owns the parts every effect domain needs:
//
//   - collecting the package's analyzable function units (declarations
//     and function literals) and mapping *types.Func objects back to
//     their bodies, so call sites resolve to summaries;
//   - resolving direct and method call expressions to their callees;
//   - driving the bottom-up summary computation to a package-level
//     fixpoint, which is what makes the summaries correct in the
//     presence of recursion and mutual recursion: summaries only grow,
//     so iteration terminates, and a bounded round count is the
//     backstop.
//
// Effect domains plug in by attaching their own summary state to the
// units and providing a per-unit step function; the framework decides
// when everything has converged.

// maxEffectRounds bounds the package-level summary fixpoint. Real call
// graphs converge in two or three rounds (one per call-chain level that
// feeds back); the bound only matters for pathological recursion.
const maxEffectRounds = 16

// funcUnit is one analyzable function body: a declared function or
// method, or a function literal. Literals are separate units because
// their bodies execute when called (or spawned), not where they appear —
// a lock taken inside `go func() { ... }()` is not held by the
// enclosing function.
type funcUnit struct {
	name string        // display name ("Close", "Serve.func1")
	decl *ast.FuncDecl // non-nil for declared functions
	lit  *ast.FuncLit  // non-nil for literals
	obj  *types.Func   // declared object; nil for literals
	body *ast.BlockStmt

	// enclosing is the declared unit a literal lexically sits in (nil
	// for declared units). Ownership-style checks (who can stop the
	// goroutine this literal runs as?) look at the declared context.
	enclosing *funcUnit
}

// effectEngine holds the package-wide unit set and call-resolution state
// one analysis run shares.
type effectEngine struct {
	p     *Package
	units []*funcUnit // declared units then literals, file order
	byObj map[*types.Func]*funcUnit
	byLit map[*ast.FuncLit]*funcUnit
}

// newEffectEngine collects the package's function units. Declared
// functions come first in file order (stable output depends on it);
// each declared unit's literals follow it, numbered the way runtime
// stack traces name them (Serve.func1).
func newEffectEngine(p *Package) *effectEngine {
	e := &effectEngine{
		p:     p,
		byObj: make(map[*types.Func]*funcUnit),
		byLit: make(map[*ast.FuncLit]*funcUnit),
	}
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			u := &funcUnit{name: fd.Name.Name, decl: fd, obj: obj, body: fd.Body}
			e.units = append(e.units, u)
			e.byObj[obj] = u
			e.collectLits(u)
		}
	}
	return e
}

// collectLits registers every function literal inside du's body as its
// own unit (including literals nested in other literals).
func (e *effectEngine) collectLits(du *funcUnit) {
	n := 0
	ast.Inspect(du.body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		n++
		u := &funcUnit{
			name:      fmt.Sprintf("%s.func%d", du.name, n),
			lit:       lit,
			body:      lit.Body,
			enclosing: du,
		}
		e.units = append(e.units, u)
		e.byLit[lit] = u
		return true
	})
}

// unitForCall resolves a call (or go/defer target) to a local unit, if
// its body is in this package: a function literal invoked or spawned in
// place, or a declared function/method of the package.
func (e *effectEngine) unitForCall(call *ast.CallExpr) *funcUnit {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return e.byLit[lit]
	}
	if fn := resolvedCallee(e.p.Info, call); fn != nil {
		return e.byObj[fn]
	}
	return nil
}

// fixpoint drives step over every unit until a full round reports no
// change, bounded by maxEffectRounds. step must be monotone: it may only
// grow its unit's summary, never shrink it, or termination is off.
func (e *effectEngine) fixpoint(step func(u *funcUnit) bool) {
	for round := 0; round < maxEffectRounds; round++ {
		changed := false
		for _, u := range e.units {
			if step(u) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// resolvedCallee returns the called *types.Func for direct calls and
// method calls, or nil for builtins, conversions and function values.
func resolvedCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// methodReceiver returns the receiver expression of a method-value call
// (c.Close() → c), or nil for plain calls.
func methodReceiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}
