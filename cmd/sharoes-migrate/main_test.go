package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
)

// runCmd runs the command with args and returns its exit code and output.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// keydir runs setup for alice and bob in group eng and returns the key
// directory.
func keydir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "keys")
	code, stdout, stderr := runCmd("setup", "-keydir", dir, "-users", "alice,bob", "-groups", "eng=alice,bob")
	if code != exitOK {
		t.Fatalf("setup: exit %d\nstderr: %s", code, stderr)
	}
	for _, f := range []string{"alice.key", "bob.key", "group-eng.key", "registry.json"} {
		if !strings.Contains(stdout, filepath.Join(dir, f)) {
			t.Errorf("setup did not report %s: %q", f, stdout)
		}
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
	return dir
}

// srcTree writes a small local tree to migrate: a file and a directory
// holding another file.
func srcTree(t *testing.T) string {
	t.Helper()
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "readme"), []byte("top"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(src, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "docs", "plan"), []byte("the plan"), 0o640); err != nil {
		t.Fatal(err)
	}
	return src
}

// server is one SSP on a loopback TCP port and its live-connection gauge.
type server struct {
	addr  string
	store ssp.BlobStore
	conns *obs.Gauge
}

func newServer(t *testing.T) *server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{addr: ln.Addr().String(), store: ssp.NewMemStore()}
	s := ssp.NewServer(srv.store, nil)
	metrics := obs.NewRegistry()
	s.Observe(metrics, nil)
	srv.conns = metrics.Gauge("ssp.conns")
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return srv
}

// waitNoConns waits until the server has no live connection left: every
// connection a run opened has been closed.
func (s *server) waitNoConns(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.conns.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d SSP connection(s) still open after run returned", s.conns.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readAs mounts fsid on store as user and reads path.
func readAs(t *testing.T, dir string, store ssp.BlobStore, scheme, fsid string, user types.UserID, path string) string {
	t.Helper()
	reg, err := keys.LoadRegistry(filepath.Join(dir, "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	u, err := keys.LoadUser(filepath.Join(dir, string(user)+".key"))
	if err != nil {
		t.Fatal(err)
	}
	var eng layout.Engine = layout.NewScheme2(reg)
	if scheme == "scheme1" {
		eng = layout.NewScheme1(reg)
	}
	s, err := client.Mount(client.Config{Store: store, User: u, Registry: reg, Layout: eng, FSID: fsid})
	if err != nil {
		t.Fatalf("mount %s as %s: %v", fsid, user, err)
	}
	defer s.Close()
	data, err := s.ReadFile(path)
	if err != nil {
		t.Fatalf("%s reads %s%s: %v", user, fsid, path, err)
	}
	return string(data)
}

// TestRunOverTCP bootstraps one filesystem and migrates a tree into
// another over a real TCP connection, under both schemes; every run,
// the failed one too, closes its connection.
func TestRunOverTCP(t *testing.T) {
	dir, src := keydir(t), srcTree(t)
	srv := newServer(t)
	for _, scheme := range []string{"scheme2", "scheme1"} {
		base := []string{"run", "-keydir", dir, "-ssp", srv.addr, "-owner", "alice", "-group", "eng", "-scheme", scheme}
		code, stdout, stderr := runCmd(append(base, "-fsid", "empty-"+scheme)...)
		if code != exitOK || !strings.Contains(stdout, "bootstrapped") || !strings.Contains(stdout, `published group key for "eng"`) {
			t.Fatalf("%s bootstrap: exit %d, stdout %q\nstderr: %s", scheme, code, stdout, stderr)
		}
		srv.waitNoConns(t)
		code, stdout, stderr = runCmd(append(base, "-fsid", "tree-"+scheme, "-src", src)...)
		if code != exitOK || !strings.Contains(stdout, "2 dirs, 2 files") {
			t.Fatalf("%s migrate: exit %d, stdout %q\nstderr: %s", scheme, code, stdout, stderr)
		}
		srv.waitNoConns(t)
		if got := readAs(t, dir, srv.store, scheme, "tree-"+scheme, "bob", "/docs/plan"); got != "the plan" {
			t.Errorf("%s: bob reads /docs/plan = %q", scheme, got)
		}
	}

	// A run that fails once connected still closes its connection.
	code, _, stderr := runCmd("run", "-keydir", dir, "-ssp", srv.addr, "-owner", "alice", "-src", filepath.Join(src, "missing"))
	if code != exitFail || stderr == "" {
		t.Fatalf("missing -src: exit %d, stderr %q; want exit 1 with a message", code, stderr)
	}
	srv.waitNoConns(t)
}

// TestRunStoreDir migrates the tree into a local disk store.
func TestRunStoreDir(t *testing.T) {
	dir, src := keydir(t), srcTree(t)
	storeDir := t.TempDir()
	code, stdout, stderr := runCmd("run", "-keydir", dir, "-storedir", storeDir, "-owner", "alice", "-group", "eng", "-src", src)
	if code != exitOK {
		t.Fatalf("migrate: exit %d, stdout %q\nstderr: %s", code, stdout, stderr)
	}
	store, err := ssp.NewDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAs(t, dir, store, "scheme2", "corp", "alice", "/readme"); got != "top" {
		t.Errorf("alice reads /readme = %q", got)
	}
}

// TestUsage checks that bad subcommands, flags and arguments exit 2 with
// a message and nothing on stdout, before anything is written.
func TestUsage(t *testing.T) {
	dir := keydir(t)
	srv := newServer(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"migrate"}},
		{"unknown flag", []string{"run", "-nosuch"}},
		{"no users", []string{"setup", "-keydir", filepath.Join(t.TempDir(), "k")}},
		{"bad group spec", []string{"setup", "-keydir", filepath.Join(t.TempDir(), "k"), "-users", "alice", "-groups", "eng"}},
		{"no owner", []string{"run", "-keydir", dir, "-ssp", srv.addr}},
		{"unknown scheme", []string{"run", "-keydir", dir, "-ssp", srv.addr, "-owner", "alice", "-scheme", "schem1"}},
		{"no store", []string{"run", "-keydir", dir, "-owner", "alice"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != exitUsage || stderr == "" || stdout != "" {
				t.Fatalf("run(%q) = %d, stdout %q, stderr %q; want exit %d and only a message on stderr", tc.args, code, stdout, stderr, exitUsage)
			}
		})
	}
	if st, err := srv.store.Stats(); err != nil || st.Objects != 0 {
		t.Errorf("usage errors left %d blobs (%v)", st.Objects, err)
	}
	srv.waitNoConns(t)
}
