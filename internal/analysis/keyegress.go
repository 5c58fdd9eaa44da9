package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// KeyEgress enforces the write-side trust boundary: plaintext key
// material (sharocrypto SymKey/SignKey/PrivateKey, or raw bytes
// extracted from one) must never flow into a wire encoder, an SSP store
// write, a netsim connection write, or a file write unless it was first
// sealed — AEAD Seal or RSA-OAEP wrap (PublicKey.Seal/SealChunked, the
// meta/cap sealers built on them).
//
// Taint is assigned by type: any expression whose static type is or
// contains a key type is tainted, and k[:], k[i] and k.Marshal() yield
// "raw key bytes" taint that survives even module-internal calls
// (base64/json laundering included). Key-typed values handed to another
// package of this module are that package's responsibility (it is
// analyzed separately), so such calls drop non-raw labels.
type KeyEgress struct{}

// Name implements Analyzer.
func (KeyEgress) Name() string { return "keyegress" }

// Doc implements Analyzer.
func (KeyEgress) Doc() string {
	return "key material must be sealed/wrapped before wire, store or file writes"
}

// keyEgressSanitizers are the sealing functions whose output is safe to
// transmit or persist.
var keyEgressSanitizers = map[string]map[string]bool{
	sharocryptoPkgSuffix: {"Seal": true, "AppendSeal": true, "SealChunked": true},
	"internal/meta":      {"Seal": true, "SealSigned": true, "SealSuperblock": true, "SealSplitPointer": true},
	"internal/cap":       {"SealTableView": true},
}

// keyEgressSinkCalls are the egress points: data leaving the client's
// trust domain.
var keyEgressSinkCalls = map[string]map[string][]int{
	"internal/ssp": {"Put": nil, "BatchPut": nil},
	// The codec surface: EncodeV2 serializes its receiver; the Append*
	// and pack-builder forms take the message (and a scratch buffer) as
	// arguments.
	"internal/wire": {"WriteFrame": nil, "EncodeV2": {-1},
		"AppendRequestV2": nil, "AppendResponseV2": nil, "AddRequest": nil, "AddResponse": nil},
	"internal/netsim": {"Write": nil},
}

// wirePkgSuffix scopes the composite-literal sink: building a wire KV,
// Request or Response around key material is egress even before the
// encoder call.
const wirePkgSuffix = "internal/wire"

// isFileWrite matches os-level file writes.
func isFileWrite(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	switch fn.Name() {
	case "WriteFile", "Write", "WriteString", "WriteAt":
		return true
	}
	return false
}

// keyEgressSourceExpr assigns taint by type and shape.
func keyEgressSourceExpr(info *types.Info, e ast.Expr) (string, bool, bool) {
	switch x := e.(type) {
	case *ast.SliceExpr:
		if t := info.TypeOf(x.X); t != nil && isKeyType(t) {
			return "raw key bytes (slice)", true, true
		}
	case *ast.IndexExpr:
		if t := info.TypeOf(x.X); t != nil && isKeyType(t) {
			return "raw key bytes (index)", true, true
		}
	case *ast.CallExpr:
		// k.Marshal() serializes the secret; Seal and friends return
		// ciphertext and are handled as sanitizers, not sources.
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Marshal" {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				recv := s.Recv()
				if p, isPtr := recv.(*types.Pointer); isPtr {
					recv = p.Elem()
				}
				if isKeyType(recv) {
					if tv, ok := info.Types[x]; ok && (isByteSlice(tv.Type) || isByteArray(tv.Type)) {
						return "raw key bytes (Marshal)", true, true
					}
				}
			}
		}
	}
	if t := info.TypeOf(e); t != nil && containsKeyType(t) {
		return "key-bearing value", false, true
	}
	return "", false, false
}

// Check implements Analyzer.
func (KeyEgress) Check(p *Package) []Finding {
	spec := &taintSpec{
		analyzer:   "keyegress",
		sourceExpr: keyEgressSourceExpr,
		sanitizer: func(fn *types.Func) bool {
			_, ok := matchSuffixFunc(keyEgressSanitizers, fn)
			return ok
		},
		sinkCall: func(fn *types.Func) (string, []int, bool) {
			if isFileWrite(fn) {
				return "file write os." + fn.Name(), nil, true
			}
			if fn.Pkg() == nil {
				return "", nil, false
			}
			for suffix, names := range keyEgressSinkCalls {
				if !strings.HasSuffix(fn.Pkg().Path(), suffix) {
					continue
				}
				args, ok := names[fn.Name()]
				if !ok {
					continue
				}
				kind := "store write"
				switch suffix {
				case "internal/wire":
					kind = "wire encoder"
				case "internal/netsim":
					kind = "network write"
				}
				return kind + " " + shortPkg(suffix) + "." + fn.Name(), args, true
			}
			return "", nil, false
		},
		sinkComposite: func(t types.Type) (string, bool) {
			n, ok := t.(*types.Named)
			if !ok || n.Obj().Pkg() == nil {
				return "", false
			}
			if !strings.HasSuffix(n.Obj().Pkg().Path(), wirePkgSuffix) {
				return "", false
			}
			return "wire." + n.Obj().Name() + " literal", true
		},
		// A struct holding a key does not make its plain fields secret —
		// metadata objects carry both keys and public attributes.
		fieldTaint: false,
		// Key-typed values passed to other packages of this module are
		// checked when that package is analyzed; raw bytes stay tainted.
		opaqueModuleCalls: true,
	}
	return analyzeTaint(p, spec)
}
