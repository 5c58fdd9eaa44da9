package analysis

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLoadErrorPath pins the malformed-package contract: LoadDir returns
// an error — which sharoes-vet maps to exit 2 — instead of panicking.
func TestLoadErrorPath(t *testing.T) {
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	dir := filepath.Join("testdata", "src", "brokenload")
	if _, err := loader.LoadDir(dir); err == nil {
		t.Fatal("LoadDir(brokenload): no error for a package that does not parse")
	} else if !strings.Contains(err.Error(), "brokenload") {
		t.Errorf("LoadDir(brokenload) error does not name the package: %v", err)
	}
}

// TestAllowCounts checks the tally against a loaded package: for each
// fixture, -list's syntax-only count equals the justified directives
// Run honours, and a bare directive counts for neither.
func TestAllowCounts(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		want    map[string]int
	}{
		{"aadbindgood", map[string]int{"aadbind": 1}},
		{"allowbare", map[string]int{}},
	} {
		allow, _ := collectAllowances(fixturePkg(t, tc.fixture))
		honoured := make(map[string]int)
		for _, lines := range allow {
			for _, names := range lines {
				for n := range names {
					honoured[n]++
				}
			}
		}
		if !reflect.DeepEqual(honoured, tc.want) {
			t.Errorf("%s: Run honours %v, want %v", tc.fixture, honoured, tc.want)
		}
		got := ScanAllowCounts([]string{filepath.Join("testdata", "src", tc.fixture)})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ScanAllowCounts(%s) = %v, want %v", tc.fixture, got, tc.want)
		}
	}
}

// TestScanAllowCounts checks the syntax-only directive tally against
// fixtures with known directives: each justified directive counts once
// per analyzer it names, and the counts of several directories add up.
func TestScanAllowCounts(t *testing.T) {
	for _, tc := range []struct {
		fixtures []string
		want     map[string]int
	}{
		{[]string{"unverifiedgood/internal/client"}, map[string]int{"unverified": 1}},
		{[]string{"errdropgood/internal/client"}, map[string]int{"errdrop": 1}},
		{[]string{"aadbindgood", "unverifiedgood/internal/client", "allowbare"}, map[string]int{"aadbind": 1, "unverified": 1}},
	} {
		var dirs []string
		for _, f := range tc.fixtures {
			dirs = append(dirs, filepath.Join("testdata", "src", filepath.FromSlash(f)))
		}
		if got := ScanAllowCounts(dirs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ScanAllowCounts(%v) = %v, want %v", tc.fixtures, got, tc.want)
		}
	}
}

// TestAllowBudget pins the allow directives in force across the module.
// It is the budget: adding an allow means editing this table, in the
// same change, where review sees it.
func TestAllowBudget(t *testing.T) {
	dirs, err := ExpandPatterns(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	want := map[string]int{
		"errdrop":    2, // bench/workloads.go: math/rand.Rand.Read never fails
		"keyegress":  1, // internal/keys/persist.go: the user's own 0600 key file
		"rawrand":    1, // bench/workloads.go: seeded benchmark traffic
		"unverified": 8, // internal/baseline: the NO-ENC modes skip authentication by design
	}
	if got := ScanAllowCounts(dirs); !reflect.DeepEqual(got, want) {
		t.Errorf("allow directives in the module = %v, want %v", got, want)
	}
}
