package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test binary: type-checking sharocrypto (and
// its stdlib closure) from source is the expensive part, and the loader
// memoizes it.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixturePkg(t *testing.T, dir string) *Package {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return p
}

// runOne runs a single analyzer (with suppression handling) over a
// fixture directory.
func runOne(t *testing.T, a Analyzer, dir string) []Finding {
	t.Helper()
	return Run(fixturePkg(t, dir), []Analyzer{a})
}

// marshalLines returns the lines of a fixture's files that call Marshal:
// the lines boundary must flag in keyleakbad and obsleakbad.
func marshalLines(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	var out []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, ".Marshal()") {
				out = append(out, fmt.Sprintf("%s:%d", filepath.Base(f), i+1))
			}
		}
	}
	return out
}

// keyLeakRows checks that Boundary flags exactly the Marshal lines of
// the bad fixture, each as a raw secret, and nothing in the good one.
// The bad fixtures' other lines print a key value, which prints
// redacted (sharocrypto's TestSecretsDoNotPrint), so they are no
// finding.
func keyLeakRows(t *testing.T, bad, good string, want int) {
	t.Helper()
	lines := marshalLines(t, bad)
	if len(lines) != want {
		t.Fatalf("%s: %d Marshal lines, want %d: %v", bad, len(lines), want, lines)
	}
	got := runOne(t, Boundary{}, bad)
	var flagged []string
	for _, f := range got {
		flagged = append(flagged, fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line))
		if !strings.Contains(f.Message, "raw secret sharocrypto.") {
			t.Errorf("%s: message %q does not name a raw secret", f.Pos, f.Message)
		}
	}
	if !slices.Equal(flagged, lines) {
		t.Errorf("%s: boundary flags %v, want the Marshal lines %v:\n%s", bad, flagged, lines, findingsText(got))
	}
	if got := runOne(t, Boundary{}, good); len(got) != 0 {
		t.Fatalf("%s: unexpected findings:\n%s", good, findingsText(got))
	}
}

// TestKeyLeak: a key's raw bytes taken for a print, in any package, are
// a boundary finding.
func TestKeyLeak(t *testing.T) {
	keyLeakRows(t, "keyleakbad", "keyleakgood", 3)
}

// TestKeyLeakObs: span annotations and metric names are exported (trace
// files, -debug-addr), so a key's raw bytes routed into them are a
// boundary finding, while the fixed-operation-name idioms the real
// instrumentation uses are not.
func TestKeyLeakObs(t *testing.T) {
	keyLeakRows(t, "obsleakbad", "obsleakgood", 3)
}

// TestBoundaryDirectiveIsRequired: without Run's suppression pass, the
// allow-directive site in the good fixture IS a violation, proving the
// directive, not the analyzer, silences it.
func TestBoundaryDirectiveIsRequired(t *testing.T) {
	p := fixturePkg(t, filepath.Join("boundarygood", "internal", "client"))
	if raw := (Boundary{}).Check(p); len(raw) != 1 {
		t.Fatalf("raw boundary findings in boundarygood: got %d, want 1 (the suppressed site):\n%s", len(raw), findingsText(raw))
	}
}

func TestRawRand(t *testing.T) {
	bad := runOne(t, RawRand{}, "rawrandbad")
	if len(bad) != 1 {
		t.Fatalf("rawrandbad: got %d findings, want 1:\n%s", len(bad), findingsText(bad))
	}
	if bad[0].Analyzer != "rawrand" || !strings.Contains(bad[0].Message, "math/rand") {
		t.Fatalf("unexpected finding: %s", bad[0])
	}
	if good := runOne(t, RawRand{}, "rawrandgood"); len(good) != 0 {
		t.Fatalf("rawrandgood: unexpected findings:\n%s", findingsText(good))
	}
	// The allowlist admits packages whose import path ends in
	// internal/workload even though they import math/rand.
	if allowed := runOne(t, RawRand{}, filepath.Join("rawrandallowed", "internal", "workload")); len(allowed) != 0 {
		t.Fatalf("rawrandallowed: unexpected findings:\n%s", findingsText(allowed))
	}
}

func TestErrString(t *testing.T) {
	bad := runOne(t, ErrString{}, filepath.Join("errstringbad", "internal", "ssp"))
	if len(bad) != 3 {
		t.Fatalf("errstringbad: got %d findings, want 3:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{"[]byte blob value", "blob-bearing value", "string(blob) conversion"}
	for i, f := range bad {
		if f.Analyzer != "errstring" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, ErrString{}, filepath.Join("errstringgood", "internal", "ssp")); len(good) != 0 {
		t.Fatalf("errstringgood: unexpected findings:\n%s", findingsText(good))
	}
}

func TestErrStringScopedToWireAndSSP(t *testing.T) {
	// The same blob-printing code outside internal/wire and internal/ssp
	// is not errstring's business (boundary still applies to keys there).
	p := fixturePkg(t, "keyleakbad")
	if got := Run(p, []Analyzer{ErrString{}}); len(got) != 0 {
		t.Fatalf("errstring fired outside wire/ssp:\n%s", findingsText(got))
	}
}

func TestRunSortsAndAggregates(t *testing.T) {
	p := fixturePkg(t, "keyleakbad")
	got := Run(p, Analyzers())
	for i := 1; i < len(got); i++ {
		a, b := got[i-1].Pos, got[i].Pos
		if a.Filename == b.Filename && (a.Line > b.Line || (a.Line == b.Line && a.Column > b.Column)) {
			t.Fatalf("findings out of order: %s before %s", got[i-1], got[i])
		}
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	dirs, err := ExpandPatterns(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no dirs expanded")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Fatalf("ExpandPatterns descended into testdata: %s", d)
		}
	}
}

// The clean-tree tests are sharoes-vet's gate as tests: every analyzer
// over every package of the module, through the shared loader, must
// report nothing. The analyzers are split three ways so a failure names
// its family; TestVetCleanTree runs every analyzer the other two do not,
// so together they run Analyzers() exactly once. A new finding needs a
// fix or a justified allow (which TestAllowBudget then counts).
var (
	concAnalyzers    = []Analyzer{LockOrder{}}
	errPropAnalyzers = []Analyzer{ErrDrop{}, ErrWrap{}, ResLeak{}}
)

// TestVetCleanTree covers the security and hygiene analyzers.
func TestVetCleanTree(t *testing.T) {
	owned := make(map[string]bool)
	for _, a := range append(slices.Clone(concAnalyzers), errPropAnalyzers...) {
		owned[a.Name()] = true
	}
	var rest []Analyzer
	for _, a := range Analyzers() {
		if !owned[a.Name()] {
			rest = append(rest, a)
		}
		delete(owned, a.Name())
	}
	if len(owned) != 0 {
		t.Fatalf("clean-tree analyzers missing from Analyzers(): %v", owned)
	}
	cleanTree(t, rest)
}

// TestConcCleanTree covers the concurrency analyzer.
func TestConcCleanTree(t *testing.T) {
	cleanTree(t, concAnalyzers)
}

// TestErrPropCleanTree covers the error-propagation analyzers.
func TestErrPropCleanTree(t *testing.T) {
	cleanTree(t, errPropAnalyzers)
}

func cleanTree(t *testing.T, analyzers []Analyzer) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	dirs, err := ExpandPatterns(loader.ModRoot, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		if got := Run(p, analyzers); len(got) != 0 {
			t.Errorf("%s: unexpected findings:\n%s", p.Path, findingsText(got))
		}
	}
}

func findingsText(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
