package analysis

import (
	"strings"
	"testing"
)

// The concurrency-analyzer tests drive the shared effect engine through
// each analyzer's spec over dedicated fixtures: lock-order cycles split
// across call boundaries, per-path lock balancing, goroutine lifecycle
// edges, and atomic/guarded field discipline.

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

func TestLockBalance(t *testing.T) {
	bad := runOne(t, LockBalance{}, "lockbalancebad")
	if len(bad) != 6 {
		t.Fatalf("lockbalancebad: got %d findings, want 6:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"locked but not unlocked",        // Leak: early return
		"possible double unlock",         // Double
		"some but not all paths",         // Uneven: branch join mismatch
		"changes across loop iterations", // Drift
		"value receiver copies lock",     // Snapshot
		"assignment copies lock",         // Clone
	}
	for i, f := range bad {
		if f.Analyzer != "lockbalance" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, LockBalance{}, "lockbalancegood"); len(good) != 0 {
		t.Fatalf("lockbalancegood: unexpected findings:\n%s", findingsText(good))
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

func TestAtomicMix(t *testing.T) {
	bad := runOne(t, AtomicMix{}, "atomicmixbad")
	if len(bad) != 2 {
		t.Fatalf("atomicmixbad: got %d findings, want 2:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"accessed with sync/atomic elsewhere but read directly", // Peek
		"usually accessed holding Counter.mu",                   // Fast
	}
	for i, f := range bad {
		if f.Analyzer != "atomicmix" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, AtomicMix{}, "atomicmixgood"); len(good) != 0 {
		t.Fatalf("atomicmixgood: unexpected findings:\n%s", findingsText(good))
	}
}

// TestConcCleanTree extends the acceptance check to the packages the
// concurrency analyzers were written to guard — the pipelined client,
// the write-behind layer, observability, and the analysis engine
// itself.
func TestConcCleanTree(t *testing.T) {
	for _, rel := range []string{
		"../ssp",
		"../client",
		"../obs",
		"../cache",
		"../netsim",
		"../stats",
		"../workload",
		".",
	} {
		loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
		if loaderErr != nil {
			t.Fatalf("NewLoader: %v", loaderErr)
		}
		p, err := loader.LoadDir(rel)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		got := Run(p, []Analyzer{LockOrder{}, LockBalance{}, GoLeak{}, AtomicMix{}})
		if len(got) != 0 {
			t.Errorf("%s: unexpected findings:\n%s", rel, findingsText(got))
		}
	}
}
