// Package leakcheck fails a test binary whose tests pass but leave
// goroutines of this module running. A package that starts goroutines
// calls it from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long Exit waits for goroutines to exit.
const settle = 5 * time.Second

type marker struct{}

// module is this module's import path. A test binary names every
// function of the module by it, a package main's included
// (github.com/sharoes/sharoes/cmd/sharoes-ssp.run.func1), and the root
// package's with no slash after it (github.com/sharoes/sharoes.F).
var module = strings.TrimSuffix(reflect.TypeOf(marker{}).PkgPath(), "/internal/leakcheck")

// Main runs the tests and exits through Exit.
func Main(m *testing.M) { Exit(m.Run()) }

// Exit exits with code. If code is 0, it first waits up to 5 s for
// every goroutine with a frame in this module to exit; if any remain,
// it prints their stacks and exits 1.
func Exit(code int) {
	if code == 0 {
		if left := leaked(settle); left != "" {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines still running %v after the tests passed:\n\n%s\n", settle, left)
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine but the caller's has a frame in this
// module, or wait has passed, and returns the stacks of those left.
func leaked(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for delay := time.Millisecond; ; delay = min(2*delay, 100*time.Millisecond) {
		left := moduleStacks()
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(delay)
	}
}

// moduleStacks returns the stack of every goroutine, the caller's
// excepted, that has a frame in this module.
func moduleStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's goroutine comes first; blank lines separate the rest.
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if inModule(g) {
			out = append(out, g)
		}
	}
	return out
}

// inModule reports whether a goroutine's stack, its "created by" frame
// included, names a function of this module.
func inModule(stack string) bool {
	return strings.Contains(stack, module+"/") || strings.Contains(stack, module+".")
}
