package client

import (
	"errors"
	"testing"

	"github.com/sharoes/sharoes/internal/types"
)

// TestACLGrantOnFile: a specific user gains read on a file that their
// class denies — the §III-D2 extension.
func TestACLGrantOnFile(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/board-minutes", []byte("confidential"), perm(t, "640")); err != nil {
			t.Fatal(err)
		}
		// carol (other: ---) cannot read.
		carol := w.as("carol")
		if _, err := carol.ReadFile("/board-minutes"); !errors.Is(err, types.ErrPermission) {
			t.Fatalf("carol before grant: %v", err)
		}
		// Grant carol read via an ACL.
		if err := alice.SetACL("/board-minutes", "carol", types.TripletRead); err != nil {
			t.Fatal(err)
		}
		carol.Refresh()
		got, err := carol.ReadFile("/board-minutes")
		if err != nil || string(got) != "confidential" {
			t.Fatalf("carol after grant = %q, %v", got, err)
		}
		// But she cannot write...
		if err := carol.WriteFile("/board-minutes", []byte("edit"), 0); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol write with r--: %v", err)
		}
		// ...and dave (other, no ACL) remains locked out.
		dave := w.mountFresh("dave", -1)
		defer dave.Close()
		if _, err := dave.ReadFile("/board-minutes"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("dave read: %v", err)
		}
		// The grant is visible.
		acl, err := alice.GetACL("/board-minutes")
		if err != nil || len(acl) != 1 || acl[0].User != "carol" || acl[0].Rights != types.TripletRead {
			t.Errorf("GetACL = %+v, %v", acl, err)
		}
	})
}

// TestACLGrantWrite: read-write grant lets the grantee author changes
// that everyone else verifies.
func TestACLGrantWrite(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/draft", []byte("v1"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.SetACL("/draft", "carol", types.TripletRead|types.TripletWrite); err != nil {
			t.Fatal(err)
		}
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if err := carol.WriteFile("/draft", []byte("v2 by carol"), 0); err != nil {
			t.Fatalf("carol write with ACL rw: %v", err)
		}
		alice.Refresh()
		if got, err := alice.ReadFile("/draft"); err != nil || string(got) != "v2 by carol" {
			t.Errorf("alice read = %q, %v", got, err)
		}
	})
}

// TestACLGrantOnDirectory: ACL rights apply to the directory itself;
// children keep their own permissions.
func TestACLGrantOnDirectory(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/eng-only", perm(t, "750")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/eng-only/open.txt", []byte("open"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/eng-only/closed.txt", []byte("closed"), perm(t, "640")); err != nil {
			t.Fatal(err)
		}
		carol := w.as("carol")
		if _, err := carol.ReadDir("/eng-only"); !errors.Is(err, types.ErrPermission) {
			t.Fatalf("carol before grant: %v", err)
		}
		if err := alice.SetACL("/eng-only", "carol", types.TripletRead|types.TripletExec); err != nil {
			t.Fatal(err)
		}
		carol.Refresh()
		names, err := carol.ReadDir("/eng-only")
		if err != nil || len(names) != 2 {
			t.Fatalf("carol ls after grant = %v, %v", names, err)
		}
		// Through the granted directory, child permissions still rule:
		// the world-readable child opens, the group-only child does not.
		if got, err := carol.ReadFile("/eng-only/open.txt"); err != nil || string(got) != "open" {
			t.Errorf("carol open.txt = %q, %v", got, err)
		}
		if _, err := carol.ReadFile("/eng-only/closed.txt"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol closed.txt: %v", err)
		}
		// New files created after the grant are visible to carol too.
		if err := alice.WriteFile("/eng-only/later.txt", []byte("later"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		carol.Refresh()
		if got, err := carol.ReadFile("/eng-only/later.txt"); err != nil || string(got) != "later" {
			t.Errorf("carol later.txt = %q, %v", got, err)
		}
	})
}

// TestACLRevocationRekeys: removing a grant re-encrypts the data.
func TestACLRevocationRekeys(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/temp-share", []byte("window"), perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		if err := alice.SetACL("/temp-share", "carol", types.TripletRead); err != nil {
			t.Fatal(err)
		}
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if _, err := carol.ReadFile("/temp-share"); err != nil {
			t.Fatal(err)
		}
		if err := alice.RemoveACL("/temp-share", "carol"); err != nil {
			t.Fatal(err)
		}
		// Even with her cached keys, the blocks were rotated.
		info, err := alice.Stat("/temp-share")
		if err != nil {
			t.Fatal(err)
		}
		forgetContent(t, carol, info.Inode)
		if got, err := carol.ReadFile("/temp-share"); err == nil {
			t.Errorf("carol read after ACL revoke: %q", got)
		}
		fresh := w.mountFresh("carol", -1)
		defer fresh.Close()
		if _, err := fresh.ReadFile("/temp-share"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("fresh carol: %v", err)
		}
		// Owner still reads.
		if got, err := alice.ReadFile("/temp-share"); err != nil || string(got) != "window" {
			t.Errorf("owner read = %q, %v", got, err)
		}
	})
}

// TestACLErrors: rule enforcement.
func TestACLErrors(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("x"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		// Only the owner may manage ACLs.
		if err := w.as("bob").SetACL("/f", "carol", types.TripletRead); !errors.Is(err, types.ErrPermission) {
			t.Errorf("bob setacl: %v", err)
		}
		// No self-grants for the owner.
		if err := alice.SetACL("/f", "alice", types.TripletRead); !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("owner self-grant: %v", err)
		}
		// Unsupported triplets are rejected (write-only file).
		if err := alice.SetACL("/f", "carol", types.TripletWrite); !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("write-only grant: %v", err)
		}
		// Unknown users are rejected.
		if err := alice.SetACL("/f", "mallory", types.TripletRead); !errors.Is(err, types.ErrNoSuchUser) {
			t.Errorf("unknown user grant: %v", err)
		}
		// Removing an absent grant.
		if err := alice.RemoveACL("/f", "carol"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("remove absent: %v", err)
		}
	})
}

// TestACLDeniesBelowClass: an ACL can also *restrict* a user below what
// their class would give (POSIX ACLs override the group/other lookup).
func TestACLDeniesBelowClass(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/for-most", []byte("public-ish"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		// Everyone can read — except dave, explicitly.
		if err := alice.SetACL("/for-most", "dave", 0); err != nil {
			t.Fatal(err)
		}
		dave := w.mountFresh("dave", -1)
		defer dave.Close()
		if _, err := dave.ReadFile("/for-most"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("dave read with deny-ACL: %v", err)
		}
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if got, err := carol.ReadFile("/for-most"); err != nil || string(got) != "public-ish" {
			t.Errorf("carol read = %q, %v", got, err)
		}
	})
}

// TestACLSurvivesChmod: changing class permissions leaves grants intact.
func TestACLSurvivesChmod(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("data"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.SetACL("/f", "carol", types.TripletRead); err != nil {
			t.Fatal(err)
		}
		// Lock the file down for the world; carol's grant persists.
		if err := alice.Chmod("/f", perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if got, err := carol.ReadFile("/f"); err != nil || string(got) != "data" {
			t.Errorf("carol after chmod = %q, %v", got, err)
		}
		dave := w.mountFresh("dave", -1)
		defer dave.Close()
		if _, err := dave.ReadFile("/f"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("dave after chmod: %v", err)
		}
	})
}
