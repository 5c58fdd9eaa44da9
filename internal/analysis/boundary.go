package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Boundary confines what the trust-boundary types leave open (DESIGN.md
// §7.25). SSP bytes reach the client as layout.Sealed, which only
// layout's openers read, and a sharocrypto key neither slices nor
// prints outside its package. What no type stops is a package calling a
// raw-secret accessor, or a key-holding package calling the SSP read,
// itself. So in every package each raw-secret call, and in the
// key-holding packages each confined call, must be one of
// boundarySites.
type Boundary struct{}

// Name implements Analyzer.
func (Boundary) Name() string { return "boundary" }

// Doc implements Analyzer.
func (Boundary) Doc() string {
	return "raw-secret accessors anywhere, and SSP reads in key-holding packages, only at the listed call sites"
}

// boundaryPkgs are the key-holding packages, by import-path suffix.
var boundaryPkgs = []string{
	"internal/client", "internal/layout", "internal/baseline", "internal/keys",
	"internal/migrate", "internal/meta", "internal/cap",
}

// rawSecret is the kind of the calls confined in every package.
const rawSecret = "raw secret"

// boundaryCallees are the confined calls. A name is the callee's package
// (the element after internal/), then the receiver type for a method,
// then the function: "ssp.Get" matches a Get of any ssp type, and
// "sharocrypto.SymKey.Marshal" only that receiver's method.
var boundaryCallees = map[string]string{
	"ssp.Get": "SSP read", "ssp.List": "SSP read", "ssp.BatchGet": "SSP read", "ssp.ListUnder": "SSP read",
	"ssp.GetView": "SSP read", "ssp.ListView": "SSP read", "ssp.BatchGetView": "SSP read",
	"wire.ReadFrame": "wire-frame read", "wire.DecodeV2": "wire-frame read", "wire.DecodeV2Into": "wire-frame read",
	"sharocrypto.SymKey.Marshal": rawSecret, "sharocrypto.SignKey.Marshal": rawSecret,
	"sharocrypto.PrivateKey.Marshal": rawSecret,
	"meta.Metadata.Encode":           "plaintext of a key-bearing object", "meta.DirTable.Encode": "plaintext of a key-bearing object",
	"meta.Superblock.Encode": "plaintext of a key-bearing object", "meta.SplitPointer.Encode": "plaintext of a key-bearing object",
}

// boundarySites are where the confined calls may appear: the enclosing
// function, named like a callee, calls callee at most n times.
var boundarySites = []struct {
	fn, callee string
	n          int
	why        string
}{
	{"layout.Get", "ssp.Get", 1, "wraps the reply as a Sealed"},
	{"layout.BatchGet", "ssp.BatchGet", 1, "wraps each reply as a Sealed"},
	{"layout.List", "ssp.ListUnder", 1, "wraps each reply as a Sealed"},
	{"keys.FetchGroupKeys", "ssp.ListUnder", 1, "each blob is opened right here with the member's private key, and its public half checked against the registry's group key"},
	{"meta.Metadata.Encode", "sharocrypto.SymKey.Marshal", 3, "the DEK, data seed and metadata seed of a copy sealed by its caller"},
	{"meta.Metadata.Encode", "sharocrypto.SignKey.Marshal", 2, "the DSK and MSK of a copy sealed by its caller"},
	{"meta.encodeEntry", "sharocrypto.SymKey.Marshal", 1, "a row's MEK, in a table sealed by its caller"},
	{"meta.Superblock.Encode", "sharocrypto.SymKey.Marshal", 1, "the root MEK, sealed to a principal by SealSuperblock"},
	{"meta.SplitPointer.Encode", "sharocrypto.SymKey.Marshal", 1, "the child's MEK, sealed to a principal by SealSplitPointer"},
	{"meta.Metadata.Seal", "meta.Metadata.Encode", 1, "sealed and signed right here"},
	{"meta.SealMeta", "meta.Metadata.Encode", 1, "each section sealed under its MEK and signed right here"},
	{"meta.SealSuperblock", "meta.Superblock.Encode", 1, "sealed to the principal's public key right here"},
	{"meta.SealSplitPointer", "meta.SplitPointer.Encode", 1, "sealed to the principal's public key right here"},
	{"cap.encodeFullView", "meta.DirTable.Encode", 1, "the view plaintext viewPlain's caller seals"},
	{"cap.encodeNamesView", "meta.DirTable.Encode", 1, "sealed under the rows key right here"},
	{"cap.encodeExecView", "sharocrypto.SymKey.Marshal", 1, "a row's MEK, sealed under its row key right here"},
	{"baseline.Engine.SealMeta", "meta.Metadata.Encode", 1, "stored plaintext by the NO-ENC modes, by design; sealed by the others"},
	{"baseline.Engine.SealViews", "meta.DirTable.Encode", 1, "stored plaintext by NO-ENC-MD-D, by design; sealed by the others"},
	{"baseline.Engine.SealSuperblock", "meta.Superblock.Encode", 1, "a baseline superblock is built without keys"},
	{"baseline.Engine.sealPubOpt", "sharocrypto.SymKey.Marshal", 1, "wrapped to each user's public key right here"},
	{"keys.PublishGroupKey", "sharocrypto.PrivateKey.Marshal", 1, "wrapped to each member's public key right here"},
	{"keys.User.Save", "sharocrypto.PrivateKey.Marshal", 1, "the user's own 0600 key file: their trust root, not SSP egress"},
}

// Check implements Analyzer.
func (a Boundary) Check(p *Package) []Finding {
	keyHolding := hasAnySuffix(p.Path, boundaryPkgs)
	allowed := make(map[[2]string]int)
	for _, s := range boundarySites {
		allowed[[2]string{s.fn, s.callee}] = s.n
	}
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			site := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					site = funcName(fn)
				}
			}
			seen := make(map[string]int)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeName(p.Info, call)
				kind, ok := boundaryCallees[callee]
				if !ok || (!keyHolding && kind != rawSecret) {
					return true
				}
				if seen[callee]++; seen[callee] > allowed[[2]string{site, callee}] {
					out = append(out, Finding{
						Analyzer: a.Name(),
						Pos:      p.Fset.Position(call.Pos()),
						Message:  fmt.Sprintf("%s %s in %s: not one of the listed boundary sites", kind, callee, cmp.Or(site, "a package-level declaration")),
					})
				}
				return true
			})
		}
	}
	return out
}

// calleeName names the function call invokes the way boundaryCallees
// does: with its receiver type when that name is listed, else without.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	fn := resolvedCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if name := funcName(fn); boundaryCallees[name] != "" {
		return name
	}
	return internalPkg(fn.Pkg()) + "." + fn.Name()
}

// funcName is "pkg.Recv.Name" for a method, "pkg.Name" for a plain
// function.
func funcName(fn *types.Func) string {
	short := internalPkg(fn.Pkg())
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return short + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return short + "." + fn.Name()
}

// internalPkg is what follows the last internal/ of pkg's import path
// (the whole path for a package outside one).
func internalPkg(pkg *types.Package) string {
	path := pkg.Path()
	if i := strings.LastIndex(path, "internal/"); i >= 0 {
		return path[i+len("internal/"):]
	}
	return path
}

// hasAnySuffix reports whether s ends in one of suffixes.
func hasAnySuffix(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}
