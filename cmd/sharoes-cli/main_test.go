package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
)

// cliFixture is one SSP on a loopback TCP port holding a bootstrapped,
// empty Scheme-2 filesystem "corp" owned by alice, and the key and
// registry files sharoes-cli mounts it with.
type cliFixture struct {
	addr, keyPath, regPath string
	conns                  *obs.Gauge // the server's live connections
}

func newCLIFixture(t *testing.T) *cliFixture {
	t.Helper()
	dir := t.TempDir()
	alice, err := keys.NewUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	reg := keys.NewRegistry()
	reg.AddUser(alice.ID, alice.Public())
	f := &cliFixture{keyPath: filepath.Join(dir, "alice.key"), regPath: filepath.Join(dir, "registry.json")}
	if err := alice.Save(f.keyPath); err != nil {
		t.Fatal(err)
	}
	if err := reg.Save(f.regPath); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ssp.NewServer(ssp.NewMemStore(), nil)
	metrics := obs.NewRegistry()
	srv.Observe(metrics, nil)
	f.conns = metrics.Gauge("ssp.conns")
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	f.addr = ln.Addr().String()

	c, err := ssp.Dial(func() (net.Conn, error) { return net.Dial("tcp", f.addr) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := migrate.Bootstrap(migrate.Options{Store: c, Registry: reg,
		Layout: layout.NewScheme2(reg), FSID: "corp", RootOwner: alice.ID}); err != nil {
		t.Fatal(err)
	}
	return f
}

// run runs the command against the fixture, as alice.
func (f *cliFixture) run(t *testing.T, flagsAndOp ...string) (code int, stdout, stderr string) {
	t.Helper()
	args := append([]string{"-key", f.keyPath, "-registry", f.regPath, "-ssp", f.addr, "-fsid", "corp"}, flagsAndOp...)
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// waitNoConns waits until the server has no live connection left: every
// connection a run opened has been closed.
func (f *cliFixture) waitNoConns(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.conns.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d SSP connection(s) still open after run returned", f.conns.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunEndToEnd drives mkdir, put, ls and cat through run over real
// TCP, each as its own mount, the way the shipped binary runs them.
func TestRunEndToEnd(t *testing.T) {
	f := newCLIFixture(t)
	local := filepath.Join(t.TempDir(), "report.txt")
	content := "quarterly numbers\n"
	if err := os.WriteFile(local, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		op         []string
		wantStdout string
	}{
		{[]string{"mkdir", "/docs", "755"}, ""},
		{[]string{"put", "/docs/report.txt", local}, ""},
		{[]string{"ls", "/docs"}, "report.txt\n"},
		{[]string{"cat", "/docs/report.txt"}, content},
	} {
		code, stdout, stderr := f.run(t, step.op...)
		if code != exitOK || stdout != step.wantStdout {
			t.Fatalf("%v: exit %d, stdout %q, want exit 0 and %q\nstderr: %s",
				step.op, code, stdout, step.wantStdout, stderr)
		}
		f.waitNoConns(t)
	}
}

// TestRunFailedOpCloses checks that a failed operation exits 1 and still
// closes the session and its connection on the way out.
func TestRunFailedOpCloses(t *testing.T) {
	f := newCLIFixture(t)
	code, _, stderr := f.run(t, "cat", "/missing")
	if code != exitFail || stderr == "" {
		t.Fatalf("cat /missing: exit %d, stderr %q; want exit 1 with a message", code, stderr)
	}
	f.waitNoConns(t)
}

func TestRunUsage(t *testing.T) {
	f := newCLIFixture(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown scheme", []string{"-key", f.keyPath, "-registry", f.regPath, "-ssp", f.addr, "-scheme", "schem1", "ls", "/"}},
		{"unknown flag", []string{"-nosuch", "ls", "/"}},
		{"no key", []string{"-registry", f.regPath, "ls", "/"}},
		{"no operation", []string{"-key", f.keyPath, "-registry", f.regPath, "-ssp", f.addr}},
		{"empty address list", []string{"-key", f.keyPath, "-registry", f.regPath, "-ssp", ",", "ls", "/"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != exitUsage {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, exitUsage, stderr.String())
			}
			if stderr.Len() == 0 || stdout.Len() != 0 {
				t.Fatalf("stdout %q, stderr %q: want only a message on stderr", stdout.String(), stderr.String())
			}
		})
	}
	f.waitNoConns(t)
}
