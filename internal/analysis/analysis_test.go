package analysis

import (
	"path/filepath"
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

func TestKeyLeak(t *testing.T) {
	bad := runOne(t, KeyLeak{}, "keyleakbad")
	if len(bad) != 5 {
		t.Fatalf("keyleakbad: got %d findings, want 5:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"key-bearing type",
		"slice of key value",
		"index of key value",
		"key-bearing type",
		"Marshal() on key value",
	}
	for i, f := range bad {
		if f.Analyzer != "keyleak" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, KeyLeak{}, "keyleakgood"); len(good) != 0 {
		t.Fatalf("keyleakgood: unexpected findings:\n%s", findingsText(good))
	}
}

// TestKeyLeakObs pins the observability sinks: span annotations and
// metric names are exported (trace files, -debug-addr), so key material
// routed into them — however laundered — must be flagged, while the
// fixed-operation-name idioms the real instrumentation uses must not.
func TestKeyLeakObs(t *testing.T) {
	bad := runOne(t, KeyLeak{}, "obsleakbad")
	if len(bad) != 5 {
		t.Fatalf("obsleakbad: got %d findings, want 5:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"via string conversion", // Annotate(string(k[:]))
		"via fmt.Sprintf",       // Annotate(fmt.Sprintf(..., k))
		"key-bearing type",      // k inside the Sprintf itself
		"via string conversion", // Counter("op." + string(k[:]))
		"via string conversion", // Histogram(string(sk.Marshal()))
	}
	for i, f := range bad {
		if f.Analyzer != "keyleak" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	for i, f := range bad[:2] {
		if !strings.Contains(f.Message, "obs.Annotate") {
			t.Errorf("finding %d: message %q does not name the obs.Annotate sink", i, f.Message)
		}
	}
	if good := runOne(t, KeyLeak{}, "obsleakgood"); len(good) != 0 {
		t.Fatalf("obsleakgood: unexpected findings:\n%s", findingsText(good))
	}
}

func TestAADBind(t *testing.T) {
	bad := runOne(t, AADBind{}, "aadbindbad")
	if len(bad) != 4 {
		t.Fatalf("aadbindbad: got %d findings, want 4:\n%s", len(bad), findingsText(bad))
	}
	for _, f := range bad {
		if f.Analyzer != "aadbind" {
			t.Errorf("analyzer %q, want aadbind", f.Analyzer)
		}
	}
	// aadbindgood includes a //sharoes-vet:allow directive; Run must honor
	// it, so the fixture also proves suppression works.
	if good := runOne(t, AADBind{}, "aadbindgood"); len(good) != 0 {
		t.Fatalf("aadbindgood: unexpected findings:\n%s", findingsText(good))
	}
}

func TestAADBindDirectiveIsRequired(t *testing.T) {
	// Without Run's suppression pass, the allow-directive site in the good
	// fixture IS a violation — proving the directive, not the analyzer,
	// silences it.
	p := fixturePkg(t, "aadbindgood")
	if raw := (AADBind{}).Check(p); len(raw) != 1 {
		t.Fatalf("raw aadbind findings in aadbindgood: got %d, want 1 (the suppressed site)", len(raw))
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
	// is not errstring's business (keyleak still applies to keys there).
	p := fixturePkg(t, "keyleakbad")
	if got := Run(p, []Analyzer{ErrString{}}); len(got) != 0 {
		t.Fatalf("errstring fired outside wire/ssp:\n%s", findingsText(got))
	}
}

func TestUnverified(t *testing.T) {
	bad := runOne(t, Unverified{}, filepath.Join("unverifiedbad", "internal", "client"))
	if len(bad) != 5 {
		t.Fatalf("unverifiedbad: got %d findings, want 5:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"exported client return value of Fetch",
		"exported client return value of FetchVia",
		"cache insert",
		"key-selection cap.MEKFor",
		"cache insert", // Prefetch: the async-goroutine flow
	}
	for i, f := range bad {
		if f.Analyzer != "unverified" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	if good := runOne(t, Unverified{}, filepath.Join("unverifiedgood", "internal", "client")); len(good) != 0 {
		t.Fatalf("unverifiedgood: unexpected findings:\n%s", findingsText(good))
	}
}

func TestUnverifiedDirectiveIsRequired(t *testing.T) {
	// unverifiedgood's Raw method returns unverified bytes behind an allow
	// directive: without Run's suppression pass it IS a violation.
	p := fixturePkg(t, filepath.Join("unverifiedgood", "internal", "client"))
	if raw := (Unverified{}).Check(p); len(raw) != 1 {
		t.Fatalf("raw unverified findings in unverifiedgood: got %d, want 1 (the suppressed site)", len(raw))
	}
}

func TestKeyEgress(t *testing.T) {
	bad := runOne(t, KeyEgress{}, "keyegressbad")
	if len(bad) != 6 {
		t.Fatalf("keyegressbad: got %d findings, want 6:\n%s", len(bad), findingsText(bad))
	}
	wantSubstr := []string{
		"wire.KV literal",
		"wire.Request literal",
		"wire encoder wire.Encode",
		"store write ssp.Put",
		"file write os.WriteFile",
		"store write ssp.Put", // BadAsyncStore: the async-goroutine flow
	}
	for i, f := range bad {
		if f.Analyzer != "keyegress" {
			t.Errorf("finding %d: analyzer %q", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	// The base64-laundered Marshal flow must be reported as raw key bytes:
	// encoding is not sealing, and module-opacity must not launder it.
	if !strings.Contains(bad[4].Message, "raw key bytes (Marshal)") {
		t.Errorf("file-write finding %q does not identify raw key bytes", bad[4].Message)
	}
	if good := runOne(t, KeyEgress{}, "keyegressgood"); len(good) != 0 {
		t.Fatalf("keyegressgood: unexpected findings:\n%s", findingsText(good))
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

// TestVetCleanTree is the acceptance check in miniature: the analyzers
// must be silent on the real packages they were written to guard.
func TestVetCleanTree(t *testing.T) {
	for _, rel := range []string{
		filepath.Join("..", "sharocrypto"),
		filepath.Join("..", "wire"),
		filepath.Join("..", "ssp"),
		filepath.Join("..", "baseline"),
		filepath.Join("..", "client"),
		filepath.Join("..", "workload"),
		filepath.Join("..", "cache"),
		filepath.Join("..", "cap"),
		filepath.Join("..", "keys"),
		filepath.Join("..", "layout"),
		filepath.Join("..", "meta"),
		filepath.Join("..", "netsim"),
	} {
		loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
		if loaderErr != nil {
			t.Fatalf("NewLoader: %v", loaderErr)
		}
		p, err := loader.LoadDir(rel)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		if got := Run(p, Analyzers()); len(got) != 0 {
			t.Errorf("%s: unexpected findings:\n%s", rel, findingsText(got))
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
