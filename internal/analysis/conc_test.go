package analysis

import (
	"strings"
	"testing"
)

// The concurrency-analyzer tests drive the shared effect engine through
// each analyzer's spec over dedicated fixtures: lock-order cycles split
// across call boundaries, and goroutine lifecycle edges.

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

func TestGoLeak(t *testing.T) {
	bad := runOne(t, GoLeak{}, "goleakbad")
	if len(bad) != 3 {
		t.Fatalf("goleakbad: got %d findings, want 3:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"goroutine drain",       // method spawn from the constructor
		"goroutine Watch.func1", // literal ranging over an unclosed channel
		"goroutine redialLoop",  // reconnect-style dial loop with no Close
	}
	for i, f := range bad {
		if f.Analyzer != "goleak" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
		if !strings.Contains(f.Message, "no reachable shutdown edge") {
			t.Errorf("finding %d: message %q does not explain the leak", i, f.Message)
		}
	}
	// goleakgood covers one exemption per shutdown edge: owner Close
	// closing the select channel, WaitGroup join, context cancel — and
	// the healed redial-loop shape (Close closing the stop channel).
	if good := runOne(t, GoLeak{}, "goleakgood"); len(good) != 0 {
		t.Fatalf("goleakgood: unexpected findings:\n%s", findingsText(good))
	}
}
