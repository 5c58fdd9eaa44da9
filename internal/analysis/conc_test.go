package analysis

import (
	"strings"
	"testing"
)

// The concurrency-analyzer test drives the effect engine through
// lockorder's fixtures: lock-order cycles split across call boundaries.

func TestLockOrder(t *testing.T) {
	bad := runOne(t, LockOrder{}, "lockorderbad")
	if len(bad) != 2 {
		t.Fatalf("lockorderbad: got %d findings, want 2 (one per edge of the cycle):\n%s", len(bad), findingsText(bad))
	}
	for i, f := range bad {
		if f.Analyzer != "lockorder" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, "lock order cycle") {
			t.Errorf("finding %d: message %q does not mention the cycle", i, f.Message)
		}
	}
	// One direction of the cycle exists only through bump's acquisition
	// summary: both orderings must be named across the two findings.
	all := bad[0].Message + " " + bad[1].Message
	for _, want := range []string{
		"Store.idx is acquired while holding Store.mu",
		"Store.mu is acquired while holding Store.idx",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("cycle findings do not include %q:\n%s", want, findingsText(bad))
		}
	}
	if good := runOne(t, LockOrder{}, "lockordergood"); len(good) != 0 {
		t.Fatalf("lockordergood: unexpected findings:\n%s", findingsText(good))
	}
}
