// Package analysis implements sharoes-vet, a static-analysis suite that
// enforces the security invariants Sharoes' threat model depends on but
// the Go compiler cannot see. The SSP is curious-or-malicious (paper §II):
// a single key byte reaching a log line, an unauthenticated AAD, or a
// predictable key source is a full compromise, so these properties are
// checked mechanically on every build rather than by review.
//
// Eleven analyzers are provided: two concurrency analyzers (lockorder,
// goleak) and three error-propagation ones (errdrop, errwrap, resleak),
// described in docs/ANALYZERS.md, and six security analyzers:
//
//   - keyleak:   no fmt.* / log.* argument whose static type is or contains
//     sharocrypto.SymKey, SignKey or PrivateKey, nor raw key bytes obtained
//     from one (k[:], k[i], k.Marshal()).
//   - aadbind:   no SymKey.Seal/Open call with a nil or empty-literal AAD —
//     every AEAD operation must bind its object context.
//   - rawrand:   no math/rand import in non-test files; key material must
//     come from crypto/rand. internal/workload is allowlisted (seeded
//     deterministic benchmark traffic, never key material).
//   - errstring: wire/ssp error and log strings must not embed blob
//     contents ([]byte values, KV structs, or string(blob) conversions).
//   - unverified: taint-flow — bytes from untrusted sources (SSP reads,
//     wire decoding, netsim reads) must pass an authenticating sanitizer
//     (AEAD Open, signature Verify, the meta/cap openers) before reaching
//     trusted sinks: exported client return values, cache inserts,
//     layout/cap key-selection decisions.
//   - keyegress: taint-flow — key-typed values and raw key bytes must be
//     sealed (AEAD Seal, RSA-OAEP wrap, the meta/cap sealers) before
//     flowing into wire encoders, SSP store writes, or file writes.
//
// The suite is self-contained: it uses only go/parser, go/ast and go/types
// from the standard library, so the repo stays offline-buildable with no
// golang.org/x/tools dependency.
//
// A finding can be suppressed — after review — with a line directive:
//
//	k.Seal(plain, nil) //sharoes-vet:allow aadbind sealed value is self-describing
//
// placed on the offending line or the line directly above it.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats a finding the way `go vet` does.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one invariant checker.
type Analyzer interface {
	// Name is the short identifier used in output and allow directives.
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Check reports violations in p. Suppression directives are applied
	// by Run, not by the analyzer.
	Check(p *Package) []Finding
}

// Analyzers returns the full sharoes-vet suite.
func Analyzers() []Analyzer {
	return []Analyzer{
		KeyLeak{}, AADBind{}, RawRand{}, ErrString{}, Unverified{}, KeyEgress{},
		LockOrder{}, GoLeak{},
		ErrDrop{}, ErrWrap{}, ResLeak{},
	}
}

// Run executes the analyzers over p, drops suppressed findings, and
// returns the remainder sorted by position, then analyzer and message.
// Allow directives missing a justification suppress nothing and are
// themselves reported as findings: an unexplained suppression is a
// finding someone buried.
func Run(p *Package, analyzers []Analyzer) []Finding {
	allow, bare := collectAllowances(p)
	out := bare
	for _, a := range analyzers {
		for _, f := range a.Check(p) {
			if allow.covers(f.Pos.Filename, f.Pos.Line, a.Name()) {
				continue
			}
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message),
		)
	})
	return out
}

// sortFindings orders one analyzer's findings by position for stable
// output.
func sortFindings(out []Finding) []Finding {
	slices.SortStableFunc(out, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
		)
	})
	return out
}

// allowDirective is the comment prefix that suppresses findings.
const allowDirective = "//sharoes-vet:allow "

// allowances maps file -> line -> analyzer names allowed there.
type allowances map[string]map[int]map[string]bool

func (a allowances) covers(file string, line int, analyzer string) bool {
	lines := a[file]
	if lines == nil {
		return false
	}
	// A directive covers its own line and the line below it (directive-
	// above-statement style).
	return lines[line][analyzer] || lines[line-1][analyzer]
}

// parseAllowDirective splits one comment into the analyzer names it
// suppresses and the free-form justification. ok is false for comments
// that are not allow directives at all.
func parseAllowDirective(text string) (names []string, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, strings.TrimSuffix(allowDirective, " "))
	if !ok {
		return nil, "", false
	}
	rest = strings.TrimSpace(rest)
	// First field is the comma-separated analyzer list; the rest of the
	// line is the justification.
	list := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		list, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, reason, true
}

// collectAllowances gathers the package's allow directives. Directives
// without a justification are returned as findings (analyzer "allow")
// instead of being honored.
func collectAllowances(p *Package) (allowances, []Finding) {
	out := make(allowances)
	var bare []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if reason == "" {
					bare = append(bare, Finding{
						Analyzer: "allow",
						Pos:      pos,
						Message: "allow directive for " + strings.Join(names, ",") +
							" has no justification; write the reason after the analyzer list",
					})
					continue
				}
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					out[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return out, bare
}

// --- shared type helpers ----------------------------------------------------

// sharocryptoPkgSuffix identifies the crypto package by import-path suffix
// so the analyzers work on any checkout location of the module.
const sharocryptoPkgSuffix = "internal/sharocrypto"

// keyTypeNames are the sharocrypto named types that hold secret material.
var keyTypeNames = map[string]bool{
	"SymKey":     true,
	"SignKey":    true,
	"PrivateKey": true,
}

// isKeyType reports whether t is exactly one of the sharocrypto key types.
func isKeyType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), sharocryptoPkgSuffix) {
		return false
	}
	return keyTypeNames[obj.Name()]
}

// containsKeyType reports whether t is, or transitively contains, a
// sharocrypto key type (through named types, structs, pointers, slices,
// arrays, maps and channels).
func containsKeyType(t types.Type) bool {
	return containsKey(t, make(map[types.Type]bool))
}

func containsKey(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isKeyType(t) {
		return true
	}
	switch u := t.(type) {
	case *types.Named:
		return containsKey(u.Underlying(), seen)
	case *types.Alias:
		return containsKey(types.Unalias(u), seen)
	case *types.Pointer:
		return containsKey(u.Elem(), seen)
	case *types.Slice:
		return containsKey(u.Elem(), seen)
	case *types.Array:
		return containsKey(u.Elem(), seen)
	case *types.Chan:
		return containsKey(u.Elem(), seen)
	case *types.Map:
		return containsKey(u.Key(), seen) || containsKey(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsKey(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// printSink resolves a call to a fmt/log print-style function or a
// log.Logger method. It returns the resolved function and true when the
// call can turn its arguments into user-visible text.
func printSink(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	switch fn.Pkg().Path() {
	case "fmt", "log", "log/slog":
		return fn, true
	}
	return nil, false
}

// isByteSlice reports whether t is []byte (possibly via a named type).
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteArray reports whether t is a [N]byte (possibly via a named type).
func isByteArray(t types.Type) bool {
	a, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := a.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
