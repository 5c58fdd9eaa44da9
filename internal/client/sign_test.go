package client

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
)

// signOp is one row of the signature table (DESIGN.md §7.19): the Ed25519
// signatures one operation makes, under Scheme-2 (three class variants,
// sections of one metadata envelope per inode) and Scheme-1 (one variant
// per user; the fixture has four). Under Scheme-2 an object's metadata is
// one signature; under Scheme-1 each variant is one. Each manifest is a
// signature of its own; all the table views one directory update writes
// share one.
type signOp struct {
	name   string
	s2, s1 int
	run    func(s *Session, i int) error
}

var signOps = []signOp{
	// Metadata, the parent's views (one group), the manifest.
	{name: "create", s2: 1 + 1 + 1, s1: 4 + 1 + 1,
		run: func(s *Session, i int) error { return s.WriteFile(fmt.Sprintf("/d/n%d", i), []byte("new"), 0o644) }},
	// Metadata, the child's empty views (one group), the parent's views
	// (one group).
	{name: "mkdir", s2: 1 + 1 + 1, s1: 4 + 1 + 1,
		run: func(s *Session, i int) error { return s.Mkdir(fmt.Sprintf("/d/sub%d", i), 0o755) }},
	{name: "remove", s2: 1, s1: 1,
		run: func(s *Session, i int) error { return s.Remove(fmt.Sprintf("/d/g%d", i)) }},
	{name: "rename-within", s2: 1, s1: 1,
		run: func(s *Session, i int) error {
			return s.Rename(fmt.Sprintf("/d/r%d", i), fmt.Sprintf("/d/r%d-moved", i))
		}},
	{name: "rename-across", s2: 2, s1: 2,
		run: func(s *Session, i int) error {
			return s.Rename(fmt.Sprintf("/d/x%d", i), fmt.Sprintf("/e/x%d", i))
		}},
	// The manifest alone: size and mtime live in it.
	{name: "append", s2: 1, s1: 1,
		run: func(s *Session, i int) error { return s.Append("/d/f", []byte(fmt.Sprintf("+%d", i))) }},
	{name: "read", s2: 0, s1: 0,
		run: func(s *Session, _ int) error { _, err := s.ReadFile("/d/f"); return err }},
	{name: "readdir", s2: 0, s1: 0,
		run: func(s *Session, _ int) error { _, err := s.ReadDir("/d"); return err }},
	// No capability is lost: the metadata alone.
	{name: "chmod-file", s2: 1, s1: 4,
		run: func(s *Session, i int) error { return s.Chmod("/d/f", []types.Perm{0o664, 0o666}[i]) }},
	// Group and other lose read: the data keys rotate, so the manifest
	// is re-signed too.
	{name: "chmod-file-revoke", s2: 1 + 1, s1: 4 + 1,
		run: func(s *Session, i int) error { return s.Chmod(fmt.Sprintf("/d/g%d", i+2), 0o600) }},
	// A class's view changes shape: the metadata and one group of views.
	{name: "chmod-dir", s2: 1 + 1, s1: 4 + 1,
		run: func(s *Session, i int) error { return s.Chmod("/e", []types.Perm{0o751, 0o755}[i%2]) }},
	// Granting rw- to bob adds a Scheme-2 variant (a/bob), so a section
	// more, and re-routes the parent's rows (one group). Scheme-1 has a
	// copy per user already, and the parent's rows do not move.
	{name: "acl-set-file", s2: 1 + 1, s1: 4,
		run: func(s *Session, i int) error {
			return s.SetACL(fmt.Sprintf("/d/acl%d", i), "bob", types.TripletRead|types.TripletWrite)
		}},
	// Taking the grant away revokes write: the data keys rotate, so the
	// manifest is re-signed too.
	{name: "acl-remove-file", s2: 1 + 1 + 1, s1: 4 + 1,
		run: func(s *Session, i int) error { return s.RemoveACL(fmt.Sprintf("/d/acl%d", i), "bob") }},
	// On a directory, its own views are one more group. Under Scheme-1
	// bob's r-x grant changes no copy's CAP: the metadata variants alone.
	{name: "acl-set-dir", s2: 1 + 1 + 1, s1: 4,
		run: func(s *Session, i int) error {
			return s.SetACL(fmt.Sprintf("/d/dacl%d", i), "bob", types.TripletRead|types.TripletExec)
		}},
	// Other loses read: the directory's views move to fresh keys, sealed
	// once under the new permission.
	{name: "chmod-dir-revoke", s2: 1 + 1, s1: 4 + 1,
		run: func(s *Session, i int) error { return s.Chmod(fmt.Sprintf("/d/rv%d", i), 0o700) }},
	// carol's grant narrows from r-x to r--: she loses traverse, so the
	// views are re-keyed, once. Her copy stays, so the parent's rows stay.
	{name: "acl-narrow-dir", s2: 1 + 1, s1: 4 + 1,
		run: func(s *Session, i int) error { return s.SetACL(fmt.Sprintf("/d/nar%d", i), "carol", types.TripletRead) }},
	// Taking the r-- grant away leaves carol the other class's ---: the
	// views are re-keyed once, and under Scheme-2 her section goes, so the
	// parent's rows move.
	{name: "acl-remove-dir", s2: 1 + 1 + 1, s1: 4 + 1,
		run: func(s *Session, i int) error { return s.RemoveACL(fmt.Sprintf("/d/nar%d", i), "carol") }},
	// A chown rotates every key: the metadata, the re-keyed manifest and
	// the parent's rows.
	{name: "chown-file", s2: 1 + 1 + 1, s1: 4 + 1 + 1,
		run: func(s *Session, i int) error { return s.Chown(fmt.Sprintf("/d/own%d", i), "bob", "") }},
	// On a directory its views take the manifest's place.
	{name: "chown-dir", s2: 1 + 1 + 1, s1: 4 + 1 + 1,
		run: func(s *Session, i int) error { return s.Chown(fmt.Sprintf("/d/down%d", i), "bob", "") }},
}

// TestSignatureBudget pins the signatures each operation makes, counted
// by meta.SignCount, under both schemes: a directory update signs its
// table views once, however many there are. It is the wall-time-free
// twin of the postmark_tcp gain, as TestRoundTripBudget is for receives.
func TestSignatureBudget(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		scheme1 := strings.HasSuffix(t.Name(), "scheme1")
		alice := w.as("alice")
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(alice.Mkdir("/d", 0o755))
		must(alice.Mkdir("/e", 0o755))
		must(alice.WriteFile("/d/f", []byte("some content"), 0o644))
		const runs = 2
		for i := 0; i < runs; i++ {
			for _, p := range []string{"g", "r", "x", "acl"} {
				must(alice.WriteFile(fmt.Sprintf("/d/%s%d", p, i), []byte(p), 0o644))
			}
			must(alice.WriteFile(fmt.Sprintf("/d/g%d", runs+i), []byte("g"), 0o644))
			must(alice.Mkdir(fmt.Sprintf("/d/dacl%d", i), 0o755))
			must(alice.Mkdir(fmt.Sprintf("/d/rv%d", i), 0o755))
			must(alice.Mkdir(fmt.Sprintf("/d/nar%d", i), 0o750))
			must(alice.SetACL(fmt.Sprintf("/d/nar%d", i), "carol", types.TripletRead|types.TripletExec))
			must(alice.WriteFile(fmt.Sprintf("/d/own%d", i), []byte("own"), 0o644))
			must(alice.Mkdir(fmt.Sprintf("/d/down%d", i), 0o755))
		}
		for _, op := range signOps {
			want := op.s2
			if scheme1 {
				want = op.s1
			}
			for i := 0; i < runs; i++ {
				before := meta.SignCount()
				if err := op.run(alice, i); err != nil {
					t.Fatalf("%s #%d: %v", op.name, i, err)
				}
				if got := meta.SignCount() - before; got != int64(want) {
					t.Errorf("%s #%d: %d signatures, want %d", op.name, i, got, want)
				}
			}
		}
	})
}
