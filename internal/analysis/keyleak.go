package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KeyLeak flags key material flowing into fmt/log output or into
// observability labels. The SSP threat model makes any log line or error
// string that carries a SymKey, SignKey or PrivateKey — or raw bytes
// extracted from one — a total compromise: server logs are exactly the
// kind of operational data an outsourced provider can read. The same
// goes for internal/obs span annotations and metric names: traces and
// metric snapshots are exported (Chrome trace files, the -debug-addr
// endpoint), so labels must carry only fixed operation names.
type KeyLeak struct{}

// Name implements Analyzer.
func (KeyLeak) Name() string { return "keyleak" }

// Doc implements Analyzer.
func (KeyLeak) Doc() string {
	return "key material (SymKey/SignKey/PrivateKey or their raw bytes) must never reach fmt/log output or obs span/metric labels"
}

// Check implements Analyzer.
func (a KeyLeak) Check(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := printSink(p.Info, call)
			if !ok {
				fn, ok = obsLabelSink(p.Info, call)
			}
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if reason, leak := a.leaks(p.Info, arg); leak {
					out = append(out, Finding{
						Analyzer: a.Name(),
						Pos:      p.Fset.Position(arg.Pos()),
						Message:  fmt.Sprintf("%s passed to %s.%s", reason, fn.Pkg().Name(), fn.Name()),
					})
				}
			}
			return true
		})
	}
	return out
}

// obsLabelSink resolves a call to an internal/obs labelling sink: span
// annotations and metric-instrument lookups, whose string arguments end
// up verbatim in exported traces and metric snapshots.
func obsLabelSink(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/obs") {
		return nil, false
	}
	switch fn.Name() {
	case "Annotate", "Counter", "Gauge", "Histogram":
		return fn, true
	}
	return nil, false
}

// leaks reports whether the expression exposes key material, and how.
func (KeyLeak) leaks(info *types.Info, arg ast.Expr) (string, bool) {
	arg = ast.Unparen(arg)
	if t := info.TypeOf(arg); t != nil && containsKeyType(t) {
		return fmt.Sprintf("value of key-bearing type %s", types.TypeString(t, nil)), true
	}
	switch e := arg.(type) {
	case *ast.BinaryExpr:
		// "prefix" + string(k.Marshal()) — concatenation is see-through.
		if e.Op == token.ADD {
			if reason, leak := (KeyLeak{}).leaks(info, e.X); leak {
				return reason, true
			}
			return (KeyLeak{}).leaks(info, e.Y)
		}
	case *ast.SliceExpr:
		// k.Marshal()[:n] — part of the raw key bytes is still key bytes.
		if reason, leak := (KeyLeak{}).leaks(info, e.X); leak {
			return reason + " via slice", true
		}
	case *ast.IndexExpr:
		// k.Marshal()[i] — a single key byte.
		if reason, leak := (KeyLeak{}).leaks(info, e.X); leak {
			return reason + " via index", true
		}
	case *ast.CallExpr:
		// string(k.Marshal()) and the like — a conversion to a string type is
		// see-through: the bytes it launders are still key bytes.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				if reason, leak := (KeyLeak{}).leaks(info, e.Args[0]); leak {
					return reason + " via string conversion", true
				}
			}
			return "", false
		}
		// fmt.Sprint*(..., k, ...) — formatting is equally see-through.
		if fn, ok := printSink(info, e); ok && strings.HasPrefix(fn.Name(), "Sprint") {
			for _, inner := range e.Args {
				if reason, leak := (KeyLeak{}).leaks(info, inner); leak {
					return reason + " via fmt." + fn.Name(), true
				}
			}
			return "", false
		}
		// k.Marshal() and friends — a method on a key type returning the
		// serialized secret.
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		selection := info.Selections[sel]
		if selection == nil || !containsKeyType(selection.Recv()) {
			return "", false
		}
		if ret := info.TypeOf(e); ret != nil && (isByteSlice(ret) || isByteArray(ret)) {
			return fmt.Sprintf("raw key bytes (%s() on key value)", sel.Sel.Name), true
		}
	}
	return "", false
}
