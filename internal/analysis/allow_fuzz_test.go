package analysis

import (
	"strings"
	"testing"
)

// FuzzParseAllowDirective hammers the allow-directive parser with
// mutations of the justification forms used in the real tree. The
// parser sits on the trust boundary of the suppression system, so the
// invariants matter more than the parse result: it must never panic,
// never return an analyzer name containing whitespace or commas, and
// must ignore comments that are not directives at all.
func FuzzParseAllowDirective(f *testing.F) {
	seeds := []string{
		"//sharoes-vet:allow errdrop warm-up traffic is advisory; a miss only costs latency",
		"//sharoes-vet:allow errdrop the write error is already being returned; close is cleanup on a failed dump",
		"//sharoes-vet:allow lockorder server owns the conn; Close unblocks the reader",
		"//sharoes-vet:allow errdrop,resleak teardown path; first error wins",
		"//sharoes-vet:allow rawrand nonce only; uniqueness not secrecy",
		"//sharoes-vet:allow errdrop",
		"//sharoes-vet:allow",
		"//sharoes-vet:allowx not a directive",
		"// just a comment",
		"//sharoes-vet:allow  errdrop\t tab separated reason",
		"//sharoes-vet:allow ,,, empty names collapse",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, reason, ok := parseAllowDirective(text)
		if !ok {
			if names != nil || reason != "" {
				t.Fatalf("non-directive returned data: names=%v reason=%q", names, reason)
			}
			return
		}
		if !strings.HasPrefix(text, "//sharoes-vet:allow") {
			t.Fatalf("accepted text without the directive prefix: %q", text)
		}
		for _, n := range names {
			if n == "" || strings.ContainsAny(n, ", \t") {
				t.Fatalf("malformed analyzer name %q from %q", n, text)
			}
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("reason not trimmed: %q from %q", reason, text)
		}
	})
}
