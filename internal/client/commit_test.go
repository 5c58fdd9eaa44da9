package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
func observe(s *Session) []string {
	var out []string
	for _, p := range observedPaths {
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
// cache changes only once the store has taken the batch — and the same
// write, retried, succeeds and is then read back the same way by both.
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
			t.Run(tc.name, func(t *testing.T) {
				rs := &refusingStore{BlobStore: ssp.NewMemStore()}
				w := newWorld(t, sw.eng, rs)
				alice := w.as("alice")
				for _, err := range []error{
					alice.Mkdir("/d", 0o755),
					alice.Mkdir("/e", 0o755),
					alice.Mkdir("/d/sub", 0o755),
					alice.WriteFile("/d/old", []byte("old"), 0o644),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
				if tc.setup != nil {
					if err := tc.setup(alice); err != nil {
						t.Fatal(err)
					}
				}
				before := observe(alice) // the writer's cache is warm

				rs.refuse = true
				if err := tc.op(alice); !errors.Is(err, errRefused) {
					t.Fatalf("refused %s: %v", tc.name, err)
				}
				rs.refuse = false
				fresh := w.mountFresh("alice", -1)
				defer fresh.Close()
				want := observe(fresh)
				sameLines(t, "store after the refused write", want, before)
				sameLines(t, "writer after the refused write", observe(alice), want)

				if err := tc.op(alice); err != nil {
					t.Fatalf("retried %s: %v", tc.name, err)
				}
				again := w.mountFresh("alice", -1)
				defer again.Close()
				sameLines(t, "writer after the retry", observe(alice), observe(again))
			})
		}
	})
}
