package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// errRefused is what a refusingStore answers a BatchPut with.
var errRefused = errors.New("batch refused")

// refusingStore is a store whose BatchPut can be made to refuse: while
// refuse is set it takes nothing of the batch and says so.
type refusingStore struct {
	ssp.BlobStore
	refuse bool
}

func (r *refusingStore) BatchPut(items []wire.KV) error {
	if r.refuse {
		return errRefused
	}
	return r.BlobStore.BatchPut(items)
}

// observedPaths are the paths the refused-write cases touch, or would
// have created.
var observedPaths = []string{"/", "/d", "/d/old", "/d/new", "/d/newdir", "/d/renamed", "/d/sub", "/e", "/e/moved"}

// observe is what a session reports of each observed path: its stat, its
// listing or its content, and its ACL.
func observe(s *Session) []string { return observeAt(s, observedPaths) }

// observeAt is observe over the given paths.
func observeAt(s *Session, paths []string) []string {
	var out []string
	for _, p := range paths {
		line := p + ":"
		info, err := s.Stat(p)
		if err != nil {
			out = append(out, line+" stat "+errClass(err))
			continue
		}
		line += fmt.Sprintf(" %v %s:%s %s size=%d mtime=%d", info.Kind, info.Owner, info.Group, info.Perm, info.Size, info.MTime.UnixNano())
		if info.Kind == types.KindDir {
			names, err := s.ReadDir(p)
			line += fmt.Sprintf(" ls=%v %s", names, errClass(err))
		} else {
			data, err := s.ReadFile(p)
			line += fmt.Sprintf(" read=%q %s", data, errClass(err))
		}
		acl, err := s.GetACL(p)
		out = append(out, line+fmt.Sprintf(" acl=%v %s", acl, errClass(err)))
	}
	return out
}

// TestRefusedWriteLeavesNoTrace: when the store refuses a write's batch,
// the session that made it reads exactly what a fresh mount reads — the
// cache keeps nothing of a batch the store did not take — and the same
// write, retried, succeeds and is then read back the same way by both.
// In the "-acked" cases the store is an ssp.Sender that takes the batch
// on the wire and fails it after the write has returned: the failure
// comes back once, from the session's next operation (at once, from
// the operation itself, for an attribute change, which waits for its
// reply).
func TestRefusedWriteLeavesNoTrace(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *Session) error
		op    func(s *Session) error
	}{
		{name: "create", op: func(s *Session) error { return s.Create("/d/new", 0o644) }},
		{name: "mkdir", op: func(s *Session) error { return s.Mkdir("/d/newdir", 0o755) }},
		{name: "write-create", op: func(s *Session) error { return s.WriteFile("/d/new", []byte("NEW CONTENT"), 0o644) }},
		{name: "write-overwrite", op: func(s *Session) error { return s.WriteFile("/d/old", []byte("NEW CONTENT"), 0) }},
		{name: "write-multiblock", op: func(s *Session) error {
			return s.WriteFile("/d/old", []byte(strings.Repeat("0123456789", 15)), 0)
		}},
		{name: "append", op: func(s *Session) error { return s.Append("/d/old", []byte("+tail")) }},
		{name: "remove", op: func(s *Session) error { return s.Remove("/d/old") }},
		{name: "remove-dir", op: func(s *Session) error { return s.Remove("/d/sub") }},
		{name: "rename-within", op: func(s *Session) error { return s.Rename("/d/old", "/d/renamed") }},
		{name: "rename-across", op: func(s *Session) error { return s.Rename("/d/old", "/e/moved") }},
		{name: "chmod-revoke-file", op: func(s *Session) error { return s.Chmod("/d/old", 0o600) }},
		{name: "chmod-revoke-dir", op: func(s *Session) error { return s.Chmod("/d", 0o700) }},
		{name: "setacl-file", op: func(s *Session) error { return s.SetACL("/d/old", "carol", types.TripletRead|types.TripletWrite) }},
		{name: "setacl-dir", op: func(s *Session) error { return s.SetACL("/d/sub", "carol", types.TripletRead|types.TripletExec) }},
		{name: "removeacl-file",
			setup: func(s *Session) error { return s.SetACL("/d/old", "carol", types.TripletRead) },
			op:    func(s *Session) error { return s.RemoveACL("/d/old", "carol") }},
		{name: "removeacl-dir",
			setup: func(s *Session) error { return s.SetACL("/d/sub", "carol", types.TripletRead|types.TripletExec) },
			op:    func(s *Session) error { return s.RemoveACL("/d/sub", "carol") }},
		{name: "chown", op: func(s *Session) error { return s.Chown("/d/old", "bob", "") }},
	}
	schemes(t, func(t *testing.T, sw *world) {
		for _, tc := range cases {
			for _, acked := range []bool{false, true} {
				name := tc.name
				if acked {
					name += "-acked"
				}
				t.Run(name, func(t *testing.T) { refusedWrite(t, sw.eng, acked, tc.setup, tc.op) })
			}
		}
	})
}

// refusedWrite is one case of TestRefusedWriteLeavesNoTrace.
func refusedWrite(t *testing.T, eng layout.Engine, acked bool, setup, op func(s *Session) error) {
	rs := &refusingStore{BlobStore: ssp.NewMemStore()}
	var store ssp.BlobStore = rs
	var g *gatedStore
	if acked {
		g = &gatedStore{MemStore: ssp.NewMemStore()}
		store = g
	}
	refuse := func(err error) {
		if acked {
			g.setRefuse(err)
		} else {
			rs.refuse = err != nil
		}
	}
	w := newWorld(t, eng, store)
	alice := w.as("alice")
	must(t, alice.Mkdir("/d", 0o755), alice.Mkdir("/e", 0o755), alice.Mkdir("/d/sub", 0o755),
		alice.WriteFile("/d/old", []byte("old"), 0o644))
	if setup != nil {
		must(t, setup(alice))
	}
	must(t, alice.Sync())
	before := observe(alice) // the writer's cache is warm

	refuse(errRefused)
	err := op(alice)
	if acked && err == nil {
		err = alice.Sync()
	}
	if !errors.Is(err, errRefused) {
		t.Fatalf("refused write: %v", err)
	}
	refuse(nil)
	if err := alice.Sync(); err != nil {
		t.Fatalf("the refusal came back twice: %v", err)
	}
	fresh := w.mountFresh("alice", -1)
	defer fresh.Close()
	want := observe(fresh)
	sameLines(t, "store after the refused write", want, before)
	sameLines(t, "writer after the refused write", observe(alice), want)

	must(t, op(alice), alice.Sync())
	again := w.mountFresh("alice", -1)
	defer again.Close()
	sameLines(t, "writer after the retry", observe(alice), observe(again))
}

// TestCreateCachesWhatItSealed: in a warm session, a new directory and
// the files made in it right after cost one store read — the first create
// reads the new directory's tables, which are not cached so that it sees
// what other users made there since, and nothing else: the creator's own
// metadata copy is cached as it was sealed — and every result then equals
// what a fresh mount reads.
func TestCreateCachesWhatItSealed(t *testing.T) {
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		alice := w.as("alice")
		must(t, alice.Mkdir("/warm", 0o755)) // the root's metadata and tables are cached
		cs.takeReads()
		must(t, alice.Mkdir("/a", 0o750), alice.Create("/a/f", 0o640),
			alice.WriteFile("/a/g", []byte("content"), 0o600))
		reads := cs.takeReads()
		if len(reads) != 1 {
			t.Fatalf("mkdir, create and write in the new directory read %v, want one read of its tables", reads)
		}
		for _, k := range reads[0] {
			if _, key, _ := strings.Cut(k, "/"); !strings.HasPrefix(key, "t/") {
				t.Errorf("the first create in the new directory read %s, want its tables only (all: %v)", k, reads[0])
			}
		}
		paths := []string{"/", "/a", "/a/f", "/a/g"}
		fresh := w.mountFresh("alice", -1)
		defer fresh.Close()
		sameLines(t, "creator against a fresh mount", observeAt(alice, paths), observeAt(fresh, paths))
	})
}

// TestOverwriteCachesOwnersMeta: an owner's overwrite re-seals every
// metadata copy and caches its own as it was sealed, as a create does, so
// a Stat and a ReadFile right after it read nothing from the store, and
// every result then equals what a fresh mount reads.
func TestOverwriteCachesOwnersMeta(t *testing.T) {
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		alice := w.as("alice")
		must(t, alice.WriteFile("/f", []byte("first"), 0o644))
		cs.takeReads()
		must(t, alice.WriteFile("/f", []byte("second, and longer"), 0o644))
		if _, err := alice.Stat("/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.ReadFile("/f"); err != nil {
			t.Fatal(err)
		}
		if reads := cs.takeReads(); len(reads) != 0 {
			t.Errorf("overwrite, Stat and ReadFile read %v, want nothing", reads)
		}
		paths := []string{"/", "/f"}
		fresh := w.mountFresh("alice", -1)
		defer fresh.Close()
		sameLines(t, "owner after an overwrite against a fresh mount", observeAt(alice, paths), observeAt(fresh, paths))
	})
}
