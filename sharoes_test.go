package sharoes

import (
	"errors"
	"sync"
	"testing"
)

// The facade test exercises the complete public API surface end to end:
// enterprise setup, bootstrap, server over a simulated link, mount,
// sharing, and a baseline for comparison.

var (
	facadeOnce sync.Once
	fAlice     *User
	fBob       *User
	fReg       *Registry
)

func facadeFixture(t testing.TB) {
	t.Helper()
	facadeOnce.Do(func() {
		var err error
		if fAlice, err = NewUser("alice"); err != nil {
			t.Fatal(err)
		}
		if fBob, err = NewUser("bob"); err != nil {
			t.Fatal(err)
		}
		fReg = NewRegistry()
		fReg.AddUser("alice", fAlice.Public())
		fReg.AddUser("bob", fBob.Public())
	})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	facadeFixture(t)

	// The SSP: an untrusted server reachable over a simulated WAN.
	store := NewMemStore()
	server := NewServer(store)
	lis := ListenSim(ProfileLAN)
	go server.Serve(lis)
	defer server.Close()

	// Transition: bootstrap an empty filesystem (trusted-side, direct).
	eng := NewScheme2(fReg)
	if err := Bootstrap(MigrateOptions{Store: store, Registry: fReg, Layout: eng,
		FSID: "corp", RootOwner: "alice", RootPerm: 0o755}); err != nil {
		t.Fatal(err)
	}

	// Clients connect over the wire.
	var rec Recorder
	remote, err := DialSSP(lis.Dial, &rec)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(MountConfig{Store: remote, User: fAlice, Registry: fReg,
		Layout: eng, FSID: "corp", Recorder: &rec, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	perm, err := ParsePerm("644")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/docs", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/hello.txt", []byte("hello, outsourced world"), perm); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/docs/hello.txt")
	if err != nil || string(got) != "hello, outsourced world" {
		t.Fatalf("read = %q, %v", got, err)
	}
	info, err := fs.Stat("/docs/hello.txt")
	if err != nil || info.Owner != "alice" || info.Perm != perm {
		t.Fatalf("stat = %+v, %v", info, err)
	}

	// Bob (other class) reads the 644 file through his own mount.
	remoteBob, err := DialSSP(lis.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	bobFS, err := Mount(MountConfig{Store: remoteBob, User: fBob, Registry: fReg,
		Layout: eng, FSID: "corp"})
	if err != nil {
		t.Fatal(err)
	}
	defer bobFS.Close()
	if got, err := bobFS.ReadFile("/docs/hello.txt"); err != nil || string(got) != "hello, outsourced world" {
		t.Fatalf("bob read = %q, %v", got, err)
	}
	// And is locked out after a revocation.
	if err := fs.Chmod("/docs/hello.txt", 0o600); err != nil {
		t.Fatal(err)
	}
	bobFS.Refresh()
	if _, err := bobFS.ReadFile("/docs/hello.txt"); !errors.Is(err, ErrPermission) {
		t.Fatalf("bob read after revoke: %v", err)
	}

	// The recorder saw network and crypto activity.
	if s := rec.Snapshot(); s.Network == 0 || s.Crypto == 0 || s.Ops == 0 {
		t.Errorf("instrumentation empty: %+v", s)
	}

	// Nothing stored at the SSP is plaintext.
	st, err := store.Stats()
	if err != nil || st.Objects == 0 {
		t.Fatalf("ssp stats: %+v, %v", st, err)
	}
}

func TestPublicAPIBaseline(t *testing.T) {
	facadeFixture(t)
	store := NewMemStore()
	eng := NewBaseline(BaselinePubOpt, fReg)
	if err := Bootstrap(MigrateOptions{Store: store, Registry: fReg, Layout: eng,
		FSID: "base", RootOwner: "alice"}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(MountConfig{Store: store, Layout: eng,
		User: fAlice, Registry: fReg, FSID: "base"})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.WriteFile("/f", []byte("baseline"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/f"); err != nil || string(got) != "baseline" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestPublicAPIMigration(t *testing.T) {
	facadeFixture(t)
	store := NewMemStore()
	eng := NewScheme2(fReg)
	tree := MigrateDir("", "alice", "", 0o755,
		MigrateDir("src", "alice", "", 0o755,
			MigrateFile("main.go", "alice", "", 0o644, []byte("package main"))),
	)
	st, err := MigrateTree(MigrateOptions{Store: store, Registry: fReg, Layout: eng,
		FSID: "mig", RootOwner: "alice"}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 || st.Dirs != 2 {
		t.Errorf("stats = %+v", st)
	}
	fs, err := Mount(MountConfig{Store: store, User: fAlice, Registry: fReg, Layout: eng, FSID: "mig"})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if got, err := fs.ReadFile("/src/main.go"); err != nil || string(got) != "package main" {
		t.Fatalf("migrated read = %q, %v", got, err)
	}
}

func TestPublicAPIACLsAndHandles(t *testing.T) {
	facadeFixture(t)
	store := NewMemStore()
	eng := NewScheme2(fReg)
	if err := Bootstrap(MigrateOptions{Store: store, Registry: fReg, Layout: eng,
		FSID: "x", RootOwner: "alice", RootPerm: 0o755}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(MountConfig{Store: store, User: fAlice, Registry: fReg, Layout: eng, FSID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Handle API: encrypt-on-close.
	h, err := fs.OpenFile("/log", OWriteFlag|OCreateFlag, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("line 1\n")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/log"); err != nil || string(got) != "line 1\n" {
		t.Fatalf("handle round trip = %q, %v", got, err)
	}

	// ACL grant through the facade.
	if err := fs.SetACL("/log", "bob", TripletRead); err != nil {
		t.Fatal(err)
	}
	acl, err := fs.GetACL("/log")
	if err != nil || len(acl) != 1 || acl[0].User != "bob" {
		t.Fatalf("GetACL = %+v, %v", acl, err)
	}
	bobFS, err := Mount(MountConfig{Store: store, User: fBob, Registry: fReg, Layout: eng, FSID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer bobFS.Close()
	if got, err := bobFS.ReadFile("/log"); err != nil || string(got) != "line 1\n" {
		t.Fatalf("bob via ACL = %q, %v", got, err)
	}
	if err := fs.RemoveACL("/log", "bob"); err != nil {
		t.Fatal(err)
	}

	// Integrity verification through the facade.
	rep, err := fs.Verify("/")
	if err != nil || !rep.OK() {
		t.Fatalf("verify: %v / %+v", err, rep)
	}
}
