package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func parked(ch chan struct{}, started chan<- struct{}) {
	close(started)
	<-ch
}

// TestLeaked: a goroutine parked on a channel is reported with its
// stack, and once the channel closes and it returns, nothing is.
func TestLeaked(t *testing.T) {
	if left := leaked(0); left != "" {
		t.Fatalf("goroutines of the module before the test:\n%s", left)
	}
	ch, started := make(chan struct{}), make(chan struct{})
	go parked(ch, started)
	<-started

	left := leaked(50 * time.Millisecond)
	for _, want := range []string{"[chan receive]", module + "/internal/leakcheck.parked(", "leakcheck_test.go:"} {
		if !strings.Contains(left, want) {
			t.Errorf("report lacks %q:\n%s", want, left)
		}
	}
	close(ch)
	if left := leaked(settle); left != "" {
		t.Errorf("reported after the channel closed:\n%s", left)
	}
}

// TestInModule: a goroutine counts if a frame names a function of the
// module, the root package's and a package main's included, or if the
// module started it, and not otherwise.
func TestInModule(t *testing.T) {
	for _, tc := range []struct {
		name, stack string
		want        bool
	}{
		{"internal package", "goroutine 7 [chan receive]:\n" + module + "/internal/ssp.(*Server).serveConn(...)\n\t/x/ssp/server.go:1 +0x1", true},
		{"root package", "goroutine 7 [select]:\n" + module + ".worker(...)\n\t/x/sharoes.go:1 +0x1", true},
		{"package main", "goroutine 7 [IO wait]:\n" + module + "/cmd/sharoes-ssp.run.func1()\n\t/x/cmd/sharoes-ssp/main.go:156 +0x25", true},
		{"started by the module", "goroutine 9 [sleep]:\ntime.Sleep(0x1)\n\t/go/src/runtime/time.go:1 +0x1\ncreated by " + module + ".run in goroutine 6\n\t/x/sharoes.go:2 +0x1", true},
		{"stdlib only", "goroutine 8 [IO wait]:\nnet/http.(*conn).serve(...)\n\t/go/src/net/http/server.go:1 +0x1\ncreated by net/http.(*Server).Serve in goroutine 7\n\t/go/src/net/http/server.go:2 +0x1", false},
		{"module-path prefix", "goroutine 8 [select]:\n" + module + "x/y.f(...)\n\t/x/y.go:1 +0x1", false},
	} {
		if got := inModule(tc.stack); got != tc.want {
			t.Errorf("%s: inModule = %v, want %v\n%s", tc.name, got, tc.want, tc.stack)
		}
	}
}
