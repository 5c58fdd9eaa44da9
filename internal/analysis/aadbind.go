package analysis

import (
	"go/ast"
	"go/types"
)

// AADBind flags SymKey.Seal / AppendSeal / Open / AppendOpen calls whose
// AAD argument (always the last) is nil or an empty literal. AES-GCM
// without additional authenticated data lets a malicious SSP satisfy a
// request for one object with any other validly sealed blob under the
// same key (a swap attack); every Seal/Open must bind the blob to its
// logical location.
type AADBind struct{}

// Name implements Analyzer.
func (AADBind) Name() string { return "aadbind" }

// Doc implements Analyzer.
func (AADBind) Doc() string {
	return "every SymKey.Seal/AppendSeal/Open/AppendOpen must bind a non-empty AAD to its object context"
}

// aadBindMethods maps the SymKey methods that take an AAD to their
// argument count; the AAD is the last argument of each.
var aadBindMethods = map[string]int{"Seal": 2, "Open": 2, "AppendSeal": 3, "AppendOpen": 3}

// Check implements Analyzer.
func (a AADBind) Check(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			nargs, ok := aadBindMethods[sel.Sel.Name]
			if !ok {
				return true
			}
			selection := p.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if !isKeyNamed(recv, "SymKey") || len(call.Args) != nargs {
				return true
			}
			if aad := call.Args[nargs-1]; emptyAAD(p.Info, aad) {
				out = append(out, Finding{
					Analyzer: a.Name(),
					Pos:      p.Fset.Position(aad.Pos()),
					Message:  "SymKey." + sel.Sel.Name + " with nil/empty AAD: bind the object context (inode, variant, generation)",
				})
			}
			return true
		})
	}
	return out
}

// isKeyNamed reports whether t is the sharocrypto type with the given name.
func isKeyNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	return ok && isKeyType(t) && n.Obj().Name() == name
}

// emptyAAD recognizes the statically-empty AAD forms: nil, []byte{},
// []byte("") and empty-string constants.
func emptyAAD(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok {
		if tv.IsNil() {
			return true
		}
		if tv.Value != nil && tv.Value.String() == `""` {
			return true
		}
	}
	switch x := e.(type) {
	case *ast.CompositeLit:
		// []byte{} — any empty composite literal passed as AAD.
		return len(x.Elts) == 0
	case *ast.CallExpr:
		// []byte("") — a conversion of an empty operand.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return emptyAAD(info, x.Args[0])
		}
	}
	return false
}
