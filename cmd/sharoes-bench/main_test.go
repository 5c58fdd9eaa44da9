package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain turns the test binary into sharoes-bench when its first
// argument is "sharoes-bench", so the tests below can run main in a child
// process and observe its exit status.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sharoes-bench" {
		os.Args = append([]string{"sharoes-bench"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs sharoes-bench with args and returns its combined output and
// whether it exited zero.
func runMain(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"sharoes-bench"}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("run %v: %v", args, err)
	}
	return string(out), err == nil
}

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
		want string
	}{
		{[]string{"-fig", "14"}, false, "valid: 9, 10, 11, 12, 13, scheme, all"},
		{[]string{"-parallel", "2"}, false, "flag provided but not defined: -parallel"},
		{[]string{"-json", "x"}, false, "flag provided but not defined: -json"},
		{[]string{"-shards", "3"}, false, "flag provided but not defined: -shards"},
		{[]string{"-self-heal"}, false, "flag provided but not defined: -self-heal"},
		{[]string{"-fig", "scheme"}, true, "Scheme study"},
	} {
		out, ok := runMain(t, tc.args...)
		if ok != tc.ok || !strings.Contains(out, tc.want) {
			t.Errorf("sharoes-bench %s: exit ok=%v, want %v, with %q in output:\n%s",
				strings.Join(tc.args, " "), ok, tc.ok, tc.want, out)
		}
	}
}
