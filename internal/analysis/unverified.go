package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unverified enforces the read-side trust boundary of the Sharoes threat
// model (paper §II): every byte received from the untrusted SSP must pass
// through an authenticating sanitizer — AEAD Open, signature Verify, or
// one of the meta/cap openers built on them — before it reaches trusted
// state: an exported client API return value, a cache insert, or a
// key-selection decision in layout/cap.
//
// Sources taint the results of SSP reads (ssp.Get/List/BatchGet), wire
// frame reads and decodes (ReadFrame/ReadFrameBuf, DecodeV2/DecodeV2Into),
// and netsim connection reads. Taint propagates through
// assignments, fields, composite literals and function calls (via
// per-function summaries inside a package); sanitizer results are
// trusted and Verify-style sanitizers bless their arguments in place.
type Unverified struct{}

// Name implements Analyzer.
func (Unverified) Name() string { return "unverified" }

// Doc implements Analyzer.
func (Unverified) Doc() string {
	return "untrusted SSP/wire/netsim reads must pass Open/Verify before trusted sinks"
}

// unverifiedSources maps package-path suffix to the function names whose
// results carry untrusted bytes.
var unverifiedSources = map[string]map[string]bool{
	"internal/ssp": {"Get": true, "List": true, "BatchGet": true},
	// Frame reads (plain and pooled) and the decodes whose results alias
	// the untrusted input buffer.
	"internal/wire":   {"ReadFrame": true, "ReadFrameBuf": true, "DecodeV2": true, "DecodeV2Into": true},
	"internal/netsim": {"Read": true},
}

// unverifiedSanitizers maps package-path suffix to the functions that
// authenticate their input: their results are trusted plaintext. A method
// is named with its receiver type: AES-GCM's SymKey.Open is not here,
// because every reader of an object holds its DEK and so can forge a blob
// that opens.
var unverifiedSanitizers = map[string]map[string]bool{
	sharocryptoPkgSuffix: {"PrivateKey.Open": true, "PrivateKey.OpenChunked": true, "VerifyKey.Verify": true},
	"internal/meta":      {"OpenVerified": true, "OpenBlock": true, "OpenMetadata": true, "OpenSuperblock": true, "OpenSplitPointer": true},
	"internal/cap":       {"OpenView": true},
	// The client's sealing seam. Each implementation is held to the same
	// rule in its own package: its openers' []byte parameters are
	// untrusted and their results a trusted sink (seamOpeners).
	"internal/layout": {"Sealer.OpenMeta": true, "Sealer.OpenView": true, "Sealer.OpenManifest": true,
		"Sealer.OpenBlock": true, "Sealer.OpenSuperblock": true},
}

// seamOpeners are the opener methods of layout.Sealer. A method of that
// name, wherever declared, is checked as an implementation of the seam:
// the bytes it is handed came from the SSP, and what it returns the
// client trusts.
var seamOpeners = map[string]bool{"OpenMeta": true, "OpenView": true, "OpenManifest": true, "OpenBlock": true, "OpenSuperblock": true}

// isSeamOpener reports whether decl implements one of seamOpeners.
func isSeamOpener(decl *ast.FuncDecl) bool {
	return decl.Recv != nil && seamOpeners[decl.Name.Name]
}

// unverifiedSinkCalls maps package-path suffix to sink functions and the
// argument indices that must stay untainted (nil = every argument).
var unverifiedSinkCalls = map[string]map[string][]int{
	// Cache inserts persist across operations; only the value argument is
	// the sink — cache keys are storage names the SSP already chooses.
	"internal/cache": {"Put": {1}},
	// Key-selection: deriving or choosing keys from unverified input lets
	// the SSP steer which key a client trusts.
	"internal/cap":    {"MEKFor": nil, "TableKey": nil},
	"internal/layout": {"Variants": nil, "UserVariant": nil, "Row": nil},
}

// unverifiedReturnPkg is the package-path suffix whose exported functions'
// return values are the trust boundary to the application.
const unverifiedReturnPkg = "internal/client"

// matchSuffixFunc looks fn up in a suffix→names table. An entry
// "Recv.Name" matches only the method Name of receiver type Recv; a bare
// "Name" matches any function or method so named.
func matchSuffixFunc(tables map[string]map[string]bool, fn *types.Func) (pkgSuffix string, ok bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	recv := recvName(fn)
	for suffix, names := range tables {
		if !strings.HasSuffix(fn.Pkg().Path(), suffix) {
			continue
		}
		if names[fn.Name()] || (recv != "" && names[recv+"."+fn.Name()]) {
			return suffix, true
		}
	}
	return "", false
}

// recvName is the name of fn's receiver type, pointer or not ("" for a
// plain function).
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// shortPkg trims an import-path suffix to its final element.
func shortPkg(suffix string) string { return baseName(suffix) }

// Check implements Analyzer.
func (Unverified) Check(p *Package) []Finding {
	spec := &taintSpec{
		analyzer: "unverified",
		sourceCall: func(fn *types.Func) (string, bool) {
			if suffix, ok := matchSuffixFunc(unverifiedSources, fn); ok {
				return "untrusted " + shortPkg(suffix) + "." + fn.Name() + " result", true
			}
			return "", false
		},
		sanitizer: func(fn *types.Func) bool {
			_, ok := matchSuffixFunc(unverifiedSanitizers, fn)
			return ok
		},
		sinkCall: func(fn *types.Func) (string, []int, bool) {
			if fn.Pkg() == nil {
				return "", nil, false
			}
			for suffix, names := range unverifiedSinkCalls {
				if !strings.HasSuffix(fn.Pkg().Path(), suffix) {
					continue
				}
				args, ok := names[fn.Name()]
				if !ok {
					continue
				}
				desc := "cache insert"
				if suffix != "internal/cache" {
					desc = "key-selection " + shortPkg(suffix) + "." + fn.Name()
				}
				return desc, args, true
			}
			return "", nil, false
		},
		sourceParam: func(decl *ast.FuncDecl, t types.Type) (string, bool) {
			if !isByteSlice(t) || !isSeamOpener(decl) {
				return "", false
			}
			return "SSP bytes handed to " + decl.Name.Name, true
		},
		sinkReturn: func(p *Package, decl *ast.FuncDecl) (string, bool) {
			if isSeamOpener(decl) {
				return "the result of seam opener " + decl.Name.Name, true
			}
			if !strings.HasSuffix(p.Path, unverifiedReturnPkg) {
				return "", false
			}
			if !decl.Name.IsExported() {
				return "", false
			}
			return "exported client return value of " + decl.Name.Name, true
		},
		fieldTaint: true,
	}
	return analyzeTaint(p, spec)
}
