// Package analysis implements sharoes-vet, a static-analysis suite that
// enforces the security invariants Sharoes' threat model depends on but
// the Go compiler cannot see. The SSP is curious-or-malicious (paper §II):
// a single key byte reaching a log line, an unauthenticated AAD, or a
// predictable key source is a full compromise. What a type or a runtime
// check cannot hold is checked mechanically on every build rather than
// by review.
//
// Seven analyzers are provided: one concurrency analyzer (lockorder)
// and three error-propagation ones (errdrop, errwrap, resleak),
// described in docs/ANALYZERS.md, and three security analyzers:
//
//   - rawrand:   no math/rand import in non-test files; key material must
//     come from crypto/rand. internal/workload is allowlisted (seeded
//     deterministic benchmark traffic, never key material).
//   - errstring: wire/ssp error and log strings must not embed blob
//     contents ([]byte values, KV structs, or string(blob) conversions).
//   - boundary:  a key's raw bytes (its Marshal) are taken only at a
//     listed set of call sites, in any package; in the key-holding
//     packages so are SSP reads, wire-frame reads and the plaintext
//     Encode of a key-bearing object. The rest of the trust boundary is
//     in types and runtime checks: SSP bytes reach the client as an
//     opaque layout.Sealed, a sharocrypto key neither slices nor prints,
//     and a seal or open with an empty AAD panics.
//
// The suite is self-contained: it uses only go/parser, go/ast and go/types
// from the standard library, so the repo stays offline-buildable with no
// golang.org/x/tools dependency.
//
// A finding can be suppressed — after review — with a line directive:
//
//	import "math/rand" //sharoes-vet:allow rawrand seeded benchmark traffic, never key material
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
		RawRand{}, ErrString{}, Boundary{},
		LockOrder{},
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
