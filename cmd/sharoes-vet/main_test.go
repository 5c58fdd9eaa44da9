package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sharoes/sharoes/internal/analysis"
)

// fixture names a package under internal/analysis/testdata/src.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "analysis", "testdata", "src", filepath.FromSlash(name))
}

func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean fixture", []string{fixture("boundarygood/internal/client")}, exitClean},
		{"bad fixture", []string{fixture("boundarybad/internal/client")}, exitFindings},
		{"unknown analyzer", []string{"-run", "nosuch", fixture("boundarygood/internal/client")}, exitError},
		{"removed flag", []string{"-baseline", "vet-baseline.json", fixture("boundarygood/internal/client")}, exitError},
		{"load error", []string{fixture("brokenload")}, exitError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
			if tc.want == exitFindings {
				// Findings print module-root-relative, one per line.
				prefix := "internal/analysis/testdata/src/boundarybad/internal/client/"
				for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
					if !strings.HasPrefix(line, prefix) || !strings.Contains(line, "[boundary]") {
						t.Errorf("finding line %q: want prefix %q and [boundary]", line, prefix)
					}
				}
			}
			if tc.want == exitError && stderr.Len() == 0 {
				t.Error("exit 2 with nothing on stderr")
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != exitClean {
		t.Fatalf("run(-list) = %d, want %d\nstderr:\n%s", got, exitClean, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if want := len(analysis.Analyzers()); len(lines) != want {
		t.Fatalf("-list printed %d lines, want one per analyzer (%d):\n%s", len(lines), want, stdout.String())
	}
}
