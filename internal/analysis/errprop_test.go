package analysis

import (
	"strings"
	"testing"
)

// TestErrDrop pins the ten ways errdropbad loses fault-relevant
// errors, in source order, and that the handled forms stay quiet.
func TestErrDrop(t *testing.T) {
	bad := runOne(t, ErrDrop{}, "errdropbad/internal/client")
	if len(bad) != 10 {
		t.Fatalf("errdropbad: got %d findings, want 10:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"ssp.Put error discarded;",
		"ssp.Put error discarded via _",
		"ssp.Get error discarded via _",
		"deferred ssp.Close discards its error",
		"ssp.Flush error lost in goroutine",
		"ssp.Put error assigned to err but never read",
		"flushAll error discarded",
		"flushOdd error discarded", // through a mutually recursive cycle
		"os.File.Write error discarded",
		"os.File.Close on a write path error discarded",
	}
	for i, f := range bad {
		if f.Analyzer != "errdrop" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, ErrDrop{}, "errdropgood/internal/client"); len(good) != 0 {
		t.Fatalf("errdropgood: unexpected findings:\n%s", findingsText(good))
	}
}

// TestErrDropAllowSuppression proves the errdropgood waiver is doing
// real work: the raw analyzer flags the allowed Flush discard, and Run
// suppresses it because the directive carries a justification.
func TestErrDropAllowSuppression(t *testing.T) {
	p := fixturePkg(t, "errdropgood/internal/client")
	raw := ErrDrop{}.Check(p)
	if len(raw) != 1 || !strings.Contains(raw[0].Message, "ssp.Flush error discarded") {
		t.Fatalf("raw check: got %d findings, want exactly the allowed Flush discard:\n%s",
			len(raw), findingsText(raw))
	}
	if got := Run(p, []Analyzer{ErrDrop{}}); len(got) != 0 {
		t.Fatalf("Run should suppress the justified allow:\n%s", findingsText(got))
	}
}

// TestErrWrap pins the five identity-flattening shapes and the clean
// wrapping idioms.
func TestErrWrap(t *testing.T) {
	bad := runOne(t, ErrWrap{}, "errwrapbad")
	if len(bad) != 5 {
		t.Fatalf("errwrapbad: got %d findings, want 5:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"error formatted with %v",
		"error formatted with %s",
		"err.Error() inside an error constructor",
		"err.Error() inside an error constructor",
		"error formatted with %v",
	}
	for i, f := range bad {
		if f.Analyzer != "errwrap" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, ErrWrap{}, "errwrapgood"); len(good) != 0 {
		t.Fatalf("errwrapgood: unexpected findings:\n%s", findingsText(good))
	}
}

// TestResLeak pins the three path-sensitive leaks — early error return,
// failure return before End, branch-local Close — and that release,
// transfer, and guard idioms all discharge the obligation.
func TestResLeak(t *testing.T) {
	bad := runOne(t, ResLeak{}, "resleakbad/internal/client")
	if len(bad) != 3 {
		t.Fatalf("resleakbad: got %d findings, want 3:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		`ssp.Client "c" is not released on the path leaving at line 20`,
		`ssp.Span "sp" is not released on the path leaving at line 29`,
		`ssp.Client "c" is not released on the path leaving at line 45`,
	}
	for i, f := range bad {
		if f.Analyzer != "resleak" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, ResLeak{}, "resleakgood/internal/client"); len(good) != 0 {
		t.Fatalf("resleakgood: unexpected findings:\n%s", findingsText(good))
	}
}

func TestModuleRootOf(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"github.com/sharoes/sharoes/internal/ssp", "github.com/sharoes/sharoes"},
		{"github.com/sharoes/sharoes/cmd/sharoes-vet", "github.com/sharoes/sharoes"},
		{"github.com/sharoes/sharoes", "github.com/sharoes/sharoes"},
		// A fixture's nested internal/ tree makes the real module a
		// prefix, so its packages count as module-internal too.
		{"github.com/sharoes/sharoes/internal/analysis/testdata/src/x/internal/client", "github.com/sharoes/sharoes"},
	} {
		if got := moduleRootOf(tc.path); got != tc.want {
			t.Errorf("moduleRootOf(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}
