package client

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// onceStore fails the test when a batch names one (namespace, key) twice:
// a write seals each blob once, so the batch never relies on the last
// write of a key winning.
type onceStore struct {
	ssp.BlobStore
	t *testing.T
}

func (o *onceStore) BatchPut(items []wire.KV) error {
	seen := make(map[blobKey]bool, len(items))
	for _, kv := range items {
		k := blobKey{kv.NS, kv.Key}
		if seen[k] {
			o.t.Errorf("one batch names %s %q twice", kv.NS, kv.Key)
		}
		seen[k] = true
	}
	return o.BlobStore.BatchPut(items)
}

// attrStep is one attribute change on /d and the attribute it leaves.
type attrStep struct {
	desc string
	op   func(s *Session) error
	perm types.Perm
	acl  []types.ACLEntry
}

// attrCases start from /d at 0755, holding a file and a subdirectory.
func attrCases() map[string][]attrStep {
	cases := make(map[string][]attrStep)
	for _, p := range []types.Perm{0o775, 0o751, 0o711, 0o744, 0o750, 0o700} {
		cases[fmt.Sprintf("chmod-%o", p)] = []attrStep{{
			desc: fmt.Sprintf("chmod %o", p),
			op:   func(s *Session) error { return s.Chmod("/d", p) },
			perm: p,
		}}
	}
	// Restricting and relaxing again: the rows a names-only view hides
	// from its readers must come back for them.
	cases["chmod-744-755"] = []attrStep{
		{desc: "chmod 744", op: func(s *Session) error { return s.Chmod("/d", 0o744) }, perm: 0o744},
		{desc: "chmod 755", op: func(s *Session) error { return s.Chmod("/d", 0o755) }, perm: 0o755},
	}
	all := types.TripletRead | types.TripletWrite | types.TripletExec
	for _, rights := range []types.Triplet{all, types.TripletRead | types.TripletExec, types.TripletRead, types.TripletExec, 0} {
		cases["acl-carol-"+rights.String()] = []attrStep{{
			desc: "setacl carol " + rights.String(),
			op:   func(s *Session) error { return s.SetACL("/d", "carol", rights) },
			perm: 0o755,
			acl:  []types.ACLEntry{{User: "carol", Rights: rights}},
		}, {
			desc: "removeacl carol",
			op:   func(s *Session) error { return s.RemoveACL("/d", "carol") },
			perm: 0o755,
		}}
	}
	return cases
}

// TestAttrChangeKeyReach checks what each non-owner can decrypt of a
// directory after an attribute change, with no policy check on the way:
// the keys a principal reaches are their permission. bob (group eng),
// carol and dave (other) each open their own copy of /d's metadata and
// view; the view must list names iff their CAP lists, give full rows iff
// it lists and traverses, answer lookups only when exec-only, and a zero
// CAP must not open at all. Every batch the changes make names each key
// once.
func TestAttrChangeKeyReach(t *testing.T) {
	schemes(t, func(t *testing.T, sw *world) {
		for name, steps := range attrCases() {
			t.Run(name, func(t *testing.T) {
				w := newWorld(t, sw.eng, &onceStore{BlobStore: ssp.NewMemStore(), t: t})
				alice := w.mountFresh("alice", -1)
				defer alice.Close()
				for _, err := range []error{
					alice.Mkdir("/d", 0o755),
					alice.WriteFile("/d/f", []byte("secret"), 0o644),
					alice.Mkdir("/d/sub", 0o755),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
				for _, st := range steps {
					// Each change starts from the store, not from what the
					// previous one cached.
					owner := w.mountFresh("alice", -1)
					err := st.op(owner)
					owner.Close()
					if err != nil {
						t.Fatalf("%s: %v", st.desc, err)
					}
					attr := meta.Attr{Kind: types.KindDir, Owner: "alice", Group: "eng", Perm: st.perm, ACL: st.acl}
					for _, u := range []types.UserID{"bob", "carol", "dave"} {
						c, _ := cap.ForDir(attr.EffectiveTriplet(u, fixReg.IsMember))
						checkReach(t, w, u, c, st.desc)
					}
				}
			})
		}
	})
}

// checkReach opens u's view of /d from a fresh mount and checks that it
// yields exactly what CAP class c allows.
func checkReach(t *testing.T, w *world, u types.UserID, c cap.Class, desc string) {
	t.Helper()
	s := w.mountFresh(u, 0)
	defer s.Close()
	r, _, _, err := s.resolveRef("/d", false)
	if err != nil {
		t.Fatalf("%s: %s resolves /d: %v", desc, u, err)
	}
	m, _, err := s.fetchMeta(r, alone)
	if err != nil {
		t.Fatalf("%s: %s opens /d's metadata: %v", desc, u, err)
	}
	v, err := s.openViewOf(r, m, nil)
	if c == cap.DirZero {
		if err == nil {
			t.Errorf("%s: %s (zero CAP) opened /d's view", desc, u)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %s (%v) opens /d's view: %v", desc, u, c, err)
	}
	want := []string{"f", "sub"}
	names, err := v.Names()
	if c.CanList() != (err == nil) || (err == nil && !slices.Equal(names, want)) {
		t.Errorf("%s: %s (%v) Names() = %v, %v", desc, u, c, names, err)
	}
	full, err := v.Full()
	if (c.CanList() && c.CanTraverse()) != (err == nil) || (err == nil && !slices.Equal(full.Names(), want)) {
		t.Errorf("%s: %s (%v) Full() = %v", desc, u, c, err)
	}
	if c == cap.DirExecOnly {
		if _, err := v.Names(); !errors.Is(err, cap.ErrNoKeys) {
			t.Errorf("%s: %s exec-only Names() = %v, want ErrNoKeys", desc, u, err)
		}
		if _, err := v.Full(); !errors.Is(err, cap.ErrNoKeys) {
			t.Errorf("%s: %s exec-only Full() = %v, want ErrNoKeys", desc, u, err)
		}
	}
	for _, name := range want {
		e, err := v.Lookup(name)
		if c.CanTraverse() != (err == nil) {
			t.Errorf("%s: %s (%v) Lookup(%q) = %+v, %v", desc, u, c, name, e, err)
		}
		if err != nil || e.Split {
			continue
		}
		// A row that traverses carries the keys of the child's copy.
		if _, _, err := s.fetchMeta(ref{ino: e.Inode, variant: e.Variant, mek: e.MEK, mvk: e.MVK}, alone); err != nil {
			t.Errorf("%s: %s (%v) opens %q through its row: %v", desc, u, c, name, err)
		}
	}
}

// TestChownDirExposureCharacterization pins a known exposure (DESIGN.md
// §5, ROADMAP item 11) exactly, so that this test fails when it widens or
// when a fix closes it. Under Scheme-2, alice makes /d (0755) and /d/f
// (0600) and chowns /d to bob. The chown re-seals /d's views under fresh
// keys but keeps their rows routed for the old owner: bob's walk through
// /d's owner view reaches /d/f's owner copy, with its DEK, MetaSeed and
// MSK. Re-routing the row needs /d/f's owner's metadata seed, which the
// directory's owner does not hold. The honest client still refuses bob
// by policy, and carol, of the other class, reaches no key of /d/f.
func TestChownDirExposureCharacterization(t *testing.T) {
	fixture(t)
	w := newWorld(t, layout.NewScheme2(fixReg), ssp.NewMemStore())
	alice := w.mountFresh("alice", -1)
	defer alice.Close()
	must(t, alice.Mkdir("/d", 0o755), alice.WriteFile("/d/f", []byte("secret"), 0o600), alice.Chown("/d", "bob", ""))

	// reach opens u's view of /d and the copy of /d/f its row leads to,
	// with no policy check.
	reach := func(u types.UserID) (dirVariant string, row meta.DirEntry, f *meta.Metadata) {
		t.Helper()
		s := w.mountFresh(u, 0)
		defer s.Close()
		r, _, _, err := s.resolveRef("/d", false)
		if err != nil {
			t.Fatalf("%s resolves /d: %v", u, err)
		}
		m, _, err := s.fetchMeta(r, alone)
		if err != nil {
			t.Fatalf("%s opens /d's metadata: %v", u, err)
		}
		v, err := s.openViewOf(r, m, nil)
		if err != nil {
			t.Fatalf("%s opens /d's view: %v", u, err)
		}
		e, err := v.Lookup("f")
		if err != nil || e.Split {
			t.Fatalf("%s looks up f in /d's %q view: %+v, %v; want a plain row", u, r.variant, e, err)
		}
		f, _, err = s.fetchMeta(ref{ino: e.Inode, variant: e.Variant, mek: e.MEK, mvk: e.MVK}, alone)
		if err != nil {
			t.Fatalf("%s opens /d/f through its row: %v", u, err)
		}
		return r.variant, *e, f
	}

	dv, row, f := reach("bob")
	if dv != "o" || row.Variant != "o" || f.Attr.Owner != "alice" {
		t.Errorf("bob walks /d's %q view to /d/f's %q copy (owner %s); the exposure is /d's o view to /d/f's o copy, owner alice",
			dv, row.Variant, f.Attr.Owner)
	}
	if f.Keys.DEK.IsZero() || f.Keys.MetaSeed.IsZero() || f.Keys.MSK.IsZero() {
		t.Errorf("bob's copy of /d/f holds DEK %v, MetaSeed %v, MSK %v: the exposure has narrowed or closed; update DESIGN.md §5, ROADMAP item 11 and this test",
			!f.Keys.DEK.IsZero(), !f.Keys.MetaSeed.IsZero(), !f.Keys.MSK.IsZero())
	}
	bob := w.mountFresh("bob", 0)
	defer bob.Close()
	if _, err := bob.ReadFile("/d/f"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("bob's ReadFile of /d/f: %v, want the policy refusal", err)
	}
	if _, _, f := reach("carol"); !f.Keys.DEK.IsZero() || !f.Keys.MetaSeed.IsZero() || !f.Keys.MSK.IsZero() || !f.Keys.DSK.IsZero() {
		t.Error("carol (other class) reaches a key of /d/f (0600): the exposure has widened")
	}
}
