package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrDrop reports errors from fault-relevant calls that are silently
// dropped. Sharoes' integrity story is client-enforced: a swallowed
// error from an SSP round trip, a wire encode, a store write, a
// WriteBehind Flush/Barrier, or a Close on a write path means data loss
// or a voided verification that nothing will ever surface. Such errors
// must be checked, returned, or explicitly allowed.
//
// Fault-relevant calls are:
//
//   - error-returning functions of the module's I/O packages
//     (internal/ssp, internal/wire, internal/netsim);
//   - Close/Flush/Barrier/Sync/Stop/Shutdown methods returning error on
//     any module-internal type (stdlib types like net.Conn are excluded:
//     teardown of a connection the other side may have dropped is noise);
//   - os.WriteFile, (*os.File).Write/WriteString/WriteAt/Sync and
//     (*bufio.Writer).Write/Flush always; (*os.File).Close only inside
//     functions that also open a file for writing (os.Create/os.OpenFile),
//     so read-side f.Close() stays quiet;
//   - module-local helpers whose error result is derived from any of the
//     above, discovered by the effect-summary fixpoint.
//
// A drop is: a bare ExprStmt call, `_ =` at the error position, a
// `defer`/`go` of the call, or assignment to a variable that is never
// read afterwards (the shadowing trap).
type ErrDrop struct{}

func (ErrDrop) Name() string { return "errdrop" }
func (ErrDrop) Doc() string {
	return "errors from ssp/wire/netsim I/O, store writes and Close/Flush on write paths must be checked or returned"
}

// errdropPkgSuffixes are the module-internal I/O packages whose
// error-returning functions are always fault-relevant.
var errdropPkgSuffixes = []string{"/internal/ssp", "/internal/wire", "/internal/netsim"}

// errdropMethods are lifecycle/flush method names whose error result
// matters on any module-internal type.
var errdropMethods = map[string]bool{
	"Close": true, "Flush": true, "Barrier": true, "Sync": true,
	"Stop": true, "Shutdown": true,
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the error interface (or an alias).
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// errorResultIndex returns the index of sig's trailing error result, or
// -1 when the function cannot fail.
func errorResultIndex(sig *types.Signature) int {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return -1
	}
	if isErrorType(res.At(res.Len() - 1).Type()) {
		return res.Len() - 1
	}
	return -1
}

// errdropEngine carries one Check run's state.
type errdropEngine struct {
	p       *Package
	eng     *effectEngine
	modRoot string

	// faulty marks local units whose error result is derived from a
	// fault-relevant call (computed to a fixpoint so wrapper chains
	// propagate).
	faulty map[*funcUnit]bool
	// opensFile marks units that call os.Create/os.OpenFile, making
	// (*os.File).Close fault-relevant within them.
	opensFile map[*funcUnit]bool
}

// moduleRootOf guesses the module path from an import path: everything
// before the first /internal/ or /cmd/ segment (the whole path
// otherwise). This keeps the engines independent of the Loader while
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

func (ErrDrop) Check(p *Package) []Finding {
	if p.Info == nil || p.Types == nil {
		return nil
	}
	e := &errdropEngine{
		p:         p,
		eng:       newEffectEngine(p),
		modRoot:   moduleRootOf(p.Path),
		faulty:    make(map[*funcUnit]bool),
		opensFile: make(map[*funcUnit]bool),
	}
	for _, u := range e.eng.units {
		e.opensFile[u] = e.callsFileOpen(u)
	}
	e.eng.fixpoint(e.summarize)
	var out []Finding
	for _, u := range e.eng.units {
		out = append(out, e.report(u)...)
	}
	return sortFindings(out)
}

// callsFileOpen reports whether u's own statements (literals excluded —
// they are their own units) open a file for writing.
func (e *errdropEngine) callsFileOpen(u *funcUnit) bool {
	found := false
	inspectUnit(u, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := resolvedCallee(e.p.Info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "os" && (fn.Name() == "Create" || fn.Name() == "OpenFile") {
			found = true
		}
		return true
	})
	return found
}

// inspectUnit walks u's body but does not descend into nested function
// literals (each literal is its own unit).
func inspectUnit(u *funcUnit, fn func(ast.Node) bool) {
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
			return false
		}
		return fn(n)
	})
}

// faultCall classifies a call as fault-relevant. desc names the rule for
// the finding message.
func (e *errdropEngine) faultCall(u *funcUnit, call *ast.CallExpr) (desc string, ok bool) {
	fn := resolvedCallee(e.p.Info, call)
	if fn == nil {
		return "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || errorResultIndex(sig) < 0 {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		switch path {
		case "os":
			if name == "WriteFile" {
				return "os.WriteFile", true
			}
		case "bufio":
			if name == "Flush" || name == "Write" {
				return "bufio." + name, true
			}
		}
		// (*os.File) write-path methods; Close only where this function
		// opens files for writing.
		if path == "os" && sig.Recv() != nil && recvTypeName(sig) == "File" {
			switch name {
			case "Write", "WriteString", "WriteAt", "Sync":
				return "os.File." + name, true
			case "Close":
				// Fault-relevant when this unit — or a lexically
				// enclosing one, for captured files — opened for write.
				for x := u; x != nil; x = x.enclosing {
					if e.opensFile[x] {
						return "os.File.Close on a write path", true
					}
				}
			}
			return "", false
		}
		// Module I/O packages: every error-returning call counts.
		for _, suf := range errdropPkgSuffixes {
			if strings.HasSuffix(path, suf) {
				return pkgBase(path) + "." + name, true
			}
		}
		// Lifecycle methods on module-internal types.
		if errdropMethods[name] && sig.Recv() != nil &&
			strings.HasPrefix(path, e.modRoot) {
			return pkgBase(path) + "." + recvTypeName(sig) + "." + name, true
		}
	}
	// Local wrappers whose error derives from a fault call.
	if lu := e.eng.unitForCall(call); lu != nil && e.faulty[lu] {
		return name, true
	}
	return "", false
}

// recvTypeName returns the bare name of a method's receiver type.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if n, ok := t.(*types.Alias); ok {
		return n.Obj().Name()
	}
	return ""
}

// pkgBase returns the last path segment of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// summarize is the fixpoint step: u becomes faulty when it returns (at
// the error position) the error of a fault-relevant call, directly or
// through a variable. Flow-insensitive on purpose — a wrapper that
// sometimes forwards the error is still worth checking at call sites.
func (e *errdropEngine) summarize(u *funcUnit) bool {
	if e.faulty[u] {
		return false
	}
	sig := unitSignature(e.p, u)
	if sig == nil || errorResultIndex(sig) < 0 {
		return false
	}
	errIdx := errorResultIndex(sig)

	// Variables assigned (anywhere in the unit) from a fault call's
	// error result.
	faultVars := make(map[types.Object]bool)
	inspectUnit(u, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, fr := e.faultCall(u, call); !fr {
				continue
			}
			csig, _ := e.p.Info.TypeOf(call.Fun).(*types.Signature)
			for j, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				// Tuple destructure: the error is at the call's error
				// index. 1:1 assign: the call's single result is the
				// error iff the call returns only an error.
				match := false
				if len(as.Rhs) == 1 && csig != nil && csig.Results().Len() > 1 {
					match = j == errorResultIndex(csig)
				} else {
					match = i == j && csig != nil && csig.Results().Len() == 1 && errorResultIndex(csig) == 0
				}
				if match {
					if obj := e.p.Info.ObjectOf(id); obj != nil {
						faultVars[obj] = true
					}
				}
			}
		}
		return true
	})

	found := false
	inspectUnit(u, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return !found
		}
		var errExpr ast.Expr
		switch {
		case len(ret.Results) == 0:
			return true // named results: conservatively not faulty
		case len(ret.Results) == 1 && sig.Results().Len() > 1:
			// return f() tuple-forward.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				if _, fr := e.faultCall(u, call); fr {
					found = true
				}
			}
			return true
		default:
			if errIdx < len(ret.Results) {
				errExpr = ret.Results[errIdx]
			}
		}
		if errExpr == nil {
			return true
		}
		switch x := ast.Unparen(errExpr).(type) {
		case *ast.CallExpr:
			if _, fr := e.faultCall(u, x); fr {
				found = true
			}
		case *ast.Ident:
			if obj := e.p.Info.ObjectOf(x); obj != nil && faultVars[obj] {
				found = true
			}
		}
		return true
	})
	if found {
		e.faulty[u] = true
	}
	return found
}

// unitSignature returns the unit's *types.Signature.
func unitSignature(p *Package, u *funcUnit) *types.Signature {
	if u.obj != nil {
		sig, _ := u.obj.Type().(*types.Signature)
		return sig
	}
	if u.lit != nil {
		sig, _ := p.Info.TypeOf(u.lit).(*types.Signature)
		return sig
	}
	return nil
}

// report walks u's statements and flags dropped fault-relevant errors.
func (e *errdropEngine) report(u *funcUnit) []Finding {
	var out []Finding
	flag := func(pos token.Pos, format string, desc string) {
		out = append(out, Finding{
			Analyzer: "errdrop",
			Pos:      e.p.Fset.Position(pos),
			Message:  strings.Replace(format, "%s", desc, 1),
		})
	}

	// Precompute write-target idents (assignment LHS, range vars) so a
	// later "read" of the error var can be told apart from a re-write.
	writes := make(map[*ast.Ident]bool)
	markWrite := func(expr ast.Expr) {
		if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
			writes[id] = true
		}
	}
	ast.Inspect(u.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				markWrite(l)
			}
		case *ast.RangeStmt:
			markWrite(s.Key)
			markWrite(s.Value)
		}
		return true
	})

	// consumed reports whether obj is read after pos; reads anywhere
	// inside loop (when the assignment sits in one) also count, because
	// the next iteration executes them after the assignment.
	consumed := func(obj types.Object, pos token.Pos, loop ast.Node) bool {
		ok := false
		scan := func(root ast.Node, after bool) {
			ast.Inspect(root, func(n ast.Node) bool {
				id, isID := n.(*ast.Ident)
				if !isID || ok {
					return !ok
				}
				if e.p.Info.ObjectOf(id) != obj || writes[id] {
					return true
				}
				if !after || id.Pos() > pos {
					ok = true
				}
				return true
			})
		}
		scan(u.body, true)
		if !ok && loop != nil {
			scan(loop, false)
		}
		return ok
	}

	var walk func(n ast.Node, loop ast.Node)
	walk = func(n ast.Node, loop ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(nn ast.Node) bool {
			if lit, ok := nn.(*ast.FuncLit); ok && lit != u.lit {
				return false // separate unit
			}
			switch s := nn.(type) {
			case *ast.ForStmt:
				if nn != n {
					walk(s, s)
					return false
				}
				loop = s
			case *ast.RangeStmt:
				if nn != n {
					walk(s, s)
					return false
				}
				loop = s
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					if desc, fr := e.faultCall(u, call); fr {
						flag(call.Pos(), "%s error discarded; check it, return it, or allow with justification", desc)
					}
				}
			case *ast.DeferStmt:
				if desc, fr := e.faultCall(u, s.Call); fr {
					flag(s.Call.Pos(), "deferred %s discards its error; capture it into a named result or check explicitly", desc)
				}
			case *ast.GoStmt:
				if desc, fr := e.faultCall(u, s.Call); fr {
					flag(s.Call.Pos(), "%s error lost in goroutine; no caller can observe it", desc)
				}
			case *ast.AssignStmt:
				e.checkAssign(u, s, loop, consumed, flag)
			}
			return true
		})
	}
	walk(u.body, nil)
	return out
}

// checkAssign flags fault-call errors assigned to `_` or to a variable
// that is never read afterwards.
func (e *errdropEngine) checkAssign(u *funcUnit, as *ast.AssignStmt, loop ast.Node,
	consumed func(types.Object, token.Pos, ast.Node) bool,
	flag func(token.Pos, string, string)) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		desc, fr := e.faultCall(u, call)
		if !fr {
			continue
		}
		csig, _ := e.p.Info.TypeOf(call.Fun).(*types.Signature)
		if csig == nil {
			continue
		}
		// Locate the LHS expression receiving the error.
		var target ast.Expr
		if len(as.Rhs) == 1 && csig.Results().Len() > 1 {
			idx := errorResultIndex(csig)
			if idx >= 0 && idx < len(as.Lhs) {
				target = as.Lhs[idx]
			}
		} else if csig.Results().Len() == 1 && errorResultIndex(csig) == 0 && i < len(as.Lhs) {
			target = as.Lhs[i]
		}
		if target == nil {
			continue
		}
		id, ok := ast.Unparen(target).(*ast.Ident)
		if !ok {
			continue // field/index stores escape; someone else may read them
		}
		if id.Name == "_" {
			flag(call.Pos(), "%s error discarded via _; check it, return it, or allow with justification", desc)
			continue
		}
		obj := e.p.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if _, isVar := obj.(*types.Var); !isVar {
			continue
		}
		if !consumed(obj, call.End(), loop) {
			flag(call.Pos(), "%s error assigned to "+id.Name+" but never read (shadowed or forgotten)", desc)
		}
	}
}
