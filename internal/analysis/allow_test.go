package analysis

import (
	"strings"
	"testing"
)

// TestBareAllowIsAFinding pins the justification requirement: a
// directive without a reason suppresses nothing and is itself reported.
func TestBareAllowIsAFinding(t *testing.T) {
	got := runOne(t, RawRand{}, "allowbare")
	if len(got) != 2 {
		t.Fatalf("allowbare: got %d findings, want 2 (bare directive + unsuppressed rawrand):\n%s", len(got), findingsText(got))
	}
	var sawBare, sawRaw bool
	for _, f := range got {
		switch f.Analyzer {
		case "allow":
			sawBare = true
			if !strings.Contains(f.Message, "no justification") {
				t.Errorf("bare-allow message %q does not explain the requirement", f.Message)
			}
		case "rawrand":
			sawRaw = true
		}
	}
	if !sawBare || !sawRaw {
		t.Fatalf("missing finding (bare=%v rawrand=%v):\n%s", sawBare, sawRaw, findingsText(got))
	}
}
