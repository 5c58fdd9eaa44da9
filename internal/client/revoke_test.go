package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestChmodGrant: relaxing permissions makes previously-withheld keys
// appear in the class's CAP copy.
func TestChmodGrant(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/memo", []byte("internal"), perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		carol := w.as("carol")
		if _, err := carol.ReadFile("/memo"); !errors.Is(err, types.ErrPermission) {
			t.Fatalf("carol read before grant: %v", err)
		}
		if err := alice.Chmod("/memo", perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		carol.Refresh()
		got, err := carol.ReadFile("/memo")
		if err != nil || string(got) != "internal" {
			t.Errorf("carol read after grant = %q, %v", got, err)
		}
	})
}

// TestChmodGrantOnDirectory: granting list/traverse on a directory whose
// views already exist — including to a class that had the zero CAP.
func TestChmodGrantOnDirectory(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/vault", perm(t, "700")); err != nil {
			t.Fatal(err)
		}
		// bob creates content... no, bob has zero; alice populates.
		if err := alice.WriteFile("/vault/gold", []byte("au"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Chmod("/vault", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		for _, u := range []types.UserID{"bob", "carol"} {
			s := w.mountFresh(u, -1)
			defer s.Close()
			names, err := s.ReadDir("/vault")
			if err != nil {
				t.Fatalf("%s ls after grant: %v", u, err)
			}
			if len(names) != 1 || names[0] != "gold" {
				t.Errorf("%s names = %v", u, names)
			}
			if got, err := s.ReadFile("/vault/gold"); err != nil || string(got) != "au" {
				t.Errorf("%s read = %q, %v", u, got, err)
			}
		}
	})
}

// TestImmediateRevocationFile: after chmod strips read, even a reader who
// cached the old DEK cannot get the content — it was re-encrypted under a
// fresh key and generation (paper §IV-A1, the prototype's default).
func TestImmediateRevocationFile(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/doc", []byte("v1 everyone may read"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		carol := w.as("carol")
		if _, err := carol.ReadFile("/doc"); err != nil {
			t.Fatal(err)
		}
		// Revoke. carol's session still holds the decrypted metadata
		// (with the old DEK) and cached blocks.
		if err := alice.Chmod("/doc", perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/doc", []byte("v2 owner only"), 0); err != nil {
			t.Fatal(err)
		}
		// Cached plaintext from the authorized era may legitimately
		// persist (any revocation scheme allows that); the new content
		// must be unreachable. Clear only the plaintext block cache to
		// model an attacker holding keys but not content.
		carol.cache.DeletePrefix(ckBlock)
		carol.cache.DeletePrefix(ckManifest)
		if got, err := carol.ReadFile("/doc"); err == nil {
			t.Errorf("carol read after revocation: %q", got)
		}
		// A fresh carol session is denied outright.
		fresh := w.mountFresh("carol", -1)
		defer fresh.Close()
		if _, err := fresh.ReadFile("/doc"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("fresh carol read: %v", err)
		}
		// Owner still reads the new content.
		if got, err := alice.ReadFile("/doc"); err != nil || string(got) != "v2 owner only" {
			t.Errorf("owner read = %q, %v", got, err)
		}
	})
}

// TestImmediateRevocationDir: stripping list/traverse rotates the
// directory's table keys.
func TestImmediateRevocationDir(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/wiki", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/wiki/page", []byte("content"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		carol := w.as("carol")
		if _, err := carol.ReadDir("/wiki"); err != nil {
			t.Fatal(err)
		}
		if err := alice.Chmod("/wiki", perm(t, "700")); err != nil {
			t.Fatal(err)
		}
		// Fresh session: no keys at all.
		fresh := w.mountFresh("carol", -1)
		defer fresh.Close()
		if _, err := fresh.ReadDir("/wiki"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("fresh carol ls after revoke: %v", err)
		}
		// Stale session with cached old table key: the stored views were
		// re-encrypted under rotated keys, so after its view cache
		// expires the old key opens nothing.
		carol.cache.DeletePrefix(ckView)
		if _, err := carol.ReadDir("/wiki"); err == nil {
			t.Error("stale carol listed the re-keyed directory")
		}
		// Owner still works, and files inside remain intact.
		if got, err := alice.ReadFile("/wiki/page"); err != nil || string(got) != "content" {
			t.Errorf("owner read after dir rekey = %q, %v", got, err)
		}
		names, err := alice.ReadDir("/wiki")
		if err != nil || len(names) != 1 {
			t.Errorf("owner ls = %v, %v", names, err)
		}
	})
}

// TestLazyRevocation: with LazyRevocation the chmod defers the re-keying
// to the owner's next write — until then a key-caching ex-reader can still
// fetch content; afterwards they cannot.
func TestLazyRevocation(t *testing.T) {
	fixture(t)
	store := ssp.NewMemStore()
	eng := layout.NewScheme2(fixReg)
	w := newWorld(t, eng, store)

	mountLazy := func(id types.UserID) *Session {
		s, err := Mount(Config{Store: store, User: fixUser[id], Registry: fixReg, Layout: eng,
			FSID: "testfs", CacheBytes: -1, BlockSize: 64, LazyRevocation: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	_ = w
	alice := mountLazy("alice")
	carol := mountLazy("carol")

	if err := alice.WriteFile("/brief", []byte("shared brief"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := carol.ReadFile("/brief"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chmod("/brief", 0o600); err != nil {
		t.Fatal(err)
	}
	// Lazy: data not yet re-keyed. carol's cached DEK still opens the
	// stored blocks (drop her plaintext cache to prove it's the key).
	carol.cache.DeletePrefix(ckBlock)
	carol.cache.DeletePrefix(ckManifest)
	if got, err := carol.ReadFile("/brief"); err != nil || string(got) != "shared brief" {
		t.Fatalf("lazy window read = %q, %v (lazy revocation should defer re-keying)", got, err)
	}
	// Owner's next write performs the deferred rotation.
	if err := alice.WriteFile("/brief", []byte("owner-only brief"), 0); err != nil {
		t.Fatal(err)
	}
	carol.cache.DeletePrefix(ckBlock)
	carol.cache.DeletePrefix(ckManifest)
	if got, err := carol.ReadFile("/brief"); err == nil {
		t.Errorf("carol read after deferred rekey: %q", got)
	}
	if got, err := alice.ReadFile("/brief"); err != nil || string(got) != "owner-only brief" {
		t.Errorf("owner read = %q, %v", got, err)
	}
}

// TestChmodNonOwnerDenied: only owners hold the MSK.
func TestChmodNonOwnerDenied(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("x"), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		// Even bob, who can write the data, cannot re-permission it.
		if err := w.as("bob").Chmod("/f", perm(t, "666")); !errors.Is(err, types.ErrPermission) {
			t.Errorf("bob chmod: %v", err)
		}
		if err := w.as("carol").Chown("/f", "carol", ""); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol chown: %v", err)
		}
	})
}

// TestChownRotatesEverything: after a chown the previous group loses
// access and stale pointers are useless.
func TestChownRotatesEverything(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/hand-off", []byte("payload"), perm(t, "640")); err != nil {
			t.Fatal(err)
		}
		// bob (eng) can read now.
		if _, err := w.as("bob").ReadFile("/hand-off"); err != nil {
			t.Fatal(err)
		}
		// Transfer to carol:qa.
		if err := alice.Chown("/hand-off", "carol", "qa"); err != nil {
			t.Fatal(err)
		}
		// bob is now "other" with zero CAP; fresh session denied.
		bob := w.mountFresh("bob", -1)
		defer bob.Close()
		if _, err := bob.ReadFile("/hand-off"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("bob read after chown: %v", err)
		}
		// carol owns it: full control.
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if got, err := carol.ReadFile("/hand-off"); err != nil || string(got) != "payload" {
			t.Errorf("carol read = %q, %v", got, err)
		}
		if err := carol.Chmod("/hand-off", perm(t, "600")); err != nil {
			t.Errorf("carol chmod as new owner: %v", err)
		}
		// alice no longer owns it.
		alice.Refresh()
		if err := alice.Chmod("/hand-off", perm(t, "644")); !errors.Is(err, types.ErrPermission) {
			t.Errorf("alice chmod after handoff: %v", err)
		}
		if _, err := alice.ReadFile("/hand-off"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("alice read after handoff+600: %v", err)
		}
	})
}

// TestChownRoot re-seals every superblock.
func TestChownRoot(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("x"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Chown("/", "bob", "eng"); err != nil {
			t.Fatal(err)
		}
		// Everyone can still mount and read.
		for _, u := range []types.UserID{"alice", "bob", "carol"} {
			s := w.mountFresh(u, -1)
			defer s.Close()
			info, err := s.Stat("/")
			if err != nil {
				t.Fatalf("%s stat / after root chown: %v", u, err)
			}
			if info.Owner != "bob" {
				t.Errorf("root owner = %s", info.Owner)
			}
			if got, err := s.ReadFile("/f"); err != nil || string(got) != "x" {
				t.Errorf("%s read /f: %q, %v", u, got, err)
			}
		}
		// And bob now controls root permissions.
		bob := w.mountFresh("bob", -1)
		defer bob.Close()
		if err := bob.Mkdir("/bobs", 0o755); err != nil {
			t.Errorf("bob mkdir at root he owns: %v", err)
		}
	})
}

// TestChmodUnsupportedPermRejected.
func TestChmodUnsupportedPermRejected(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("x"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Chmod("/f", perm(t, "642")); !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("file -w- other: %v", err)
		}
		if err := alice.Mkdir("/d", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Chmod("/d", perm(t, "753")); !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("dir -wx other: %v", err)
		}
	})
}

// TestGroupMembershipRevocation: removing a member and rotating the
// object keys locks the ex-member out.
func TestGroupMembershipRevocation(t *testing.T) {
	fixture(t)
	// Use a private registry so membership churn doesn't affect other tests.
	reg := keys.NewRegistry()
	for id, u := range fixUser {
		reg.AddUser(id, u.Public())
	}
	grp, err := keys.NewGroup("team")
	if err != nil {
		t.Fatal(err)
	}
	reg.AddGroup("team", grp.Priv.Public())
	reg.AddMember("team", "alice")
	reg.AddMember("team", "bob")

	store := ssp.NewMemStore()
	eng := layout.NewScheme2(reg)
	err = migrate.Bootstrap(migrate.Options{Store: store, Registry: reg, Layout: eng,
		FSID: "testfs", RootOwner: "alice", RootGroup: "team", RootPerm: 0o755})
	if err != nil {
		t.Fatal(err)
	}

	mount := func(id types.UserID) *Session {
		s, err := Mount(Config{Store: store, User: fixUser[id], Registry: reg, Layout: eng,
			FSID: "testfs", CacheBytes: -1, BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	alice := mount("alice")
	if err := alice.WriteFile("/team-doc", []byte("for the team"), 0o640); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chown("/team-doc", "alice", "team"); err != nil {
		t.Fatal(err)
	}
	bob := mount("bob")
	if _, err := bob.ReadFile("/team-doc"); err != nil {
		t.Fatal(err)
	}
	// bob leaves the team; the owner re-keys via a self-chown (same
	// owner/group, full key rotation).
	reg.RemoveMember("team", "bob")
	alice.Refresh()
	if err := alice.Chown("/team-doc", "alice", "team"); err != nil {
		t.Fatal(err)
	}
	fresh := mount("bob")
	if _, err := fresh.ReadFile("/team-doc"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("ex-member read: %v", err)
	}
}

// TestRevocationRemovesOldGeneration: the SSP no longer holds blobs
// decryptable with the revoked key.
func TestRevocationRemovesOldGeneration(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		content := bytes.Repeat([]byte("secret"), 100)
		if err := alice.WriteFile("/s", content, perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		before, err := w.store.List(wire.NSData, "f/")
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.Chmod("/s", perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		after, err := w.store.List(wire.NSData, "f/")
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Errorf("blob count changed %d → %d; old generation should be replaced 1:1", len(before), len(after))
		}
		for _, kv := range after {
			for _, old := range before {
				if kv.Key == old.Key && bytes.Equal(kv.Val, old.Val) {
					t.Errorf("blob %q survived re-keying", kv.Key)
				}
			}
		}
	})
}

// TestBatchedEntriesStayCoherent: entries cached by a sibling batch are
// ordinary cached metadata — every mutation of a batched child or of the
// listed parent takes effect on the session's very next operation, and a
// second session sees it after Refresh, exactly as for entries it had
// fetched one by one.
func TestBatchedEntriesStayCoherent(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/d", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"a", "b", "c", "d", "e"} {
			if err := alice.WriteFile("/d/"+n, []byte(n), perm(t, "644")); err != nil {
				t.Fatal(err)
			}
		}
		// list pulls the whole directory through one batch.
		list := func(s *Session) []string {
			t.Helper()
			names, err := s.ReadDir("/d")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Stat("/d/" + names[0]); err != nil {
				t.Fatal(err)
			}
			return names
		}
		carol := w.as("carol")
		list(alice)
		list(carol)

		// chmod of a batched child: the owner's next getattr shows it.
		if err := alice.Chmod("/d/b", perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		if info, err := alice.Stat("/d/b"); err != nil || info.Perm != 0o600 {
			t.Errorf("stat after chmod = %+v, %v", info, err)
		}
		// The revoked reader keeps her cached copy until Refresh — the
		// coherence of any cached metadata — and then loses access.
		carol.Refresh()
		list(carol)
		if _, err := carol.ReadFile("/d/b"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol read after revoke+refresh: %v", err)
		}
		if info, err := carol.Stat("/d/b"); err != nil || info.Perm != 0o600 {
			t.Errorf("carol stat after revoke+refresh = %+v, %v", info, err)
		}

		// remove and rename of batched children.
		list(alice)
		if err := alice.Remove("/d/c"); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/d/c"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("stat of removed batched child: %v", err)
		}
		list(alice)
		if err := alice.Rename("/d/d", "/d/z"); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/d/d"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("stat of renamed-away batched child: %v", err)
		}
		if got, err := alice.ReadFile("/d/z"); err != nil || string(got) != "d" {
			t.Errorf("read of renamed batched child = %q, %v", got, err)
		}
		if names := list(alice); fmt.Sprint(names) != "[a b e z]" {
			t.Errorf("listing after remove+rename = %v", names)
		}
		// A write through a batched entry is read back at once.
		if err := alice.WriteFile("/d/e", []byte("rewritten"), 0); err != nil {
			t.Fatal(err)
		}
		if info, err := alice.Stat("/d/e"); err != nil || info.Size != 9 {
			t.Errorf("stat after overwrite = %+v, %v", info, err)
		}

		// chmod of the listed parent: traversal is re-checked on every hop,
		// batched refs or not.
		list(alice)
		if err := alice.Chmod("/d", perm(t, "600")); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/d/a"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("owner stat through exec-less parent: %v", err)
		}
		if err := alice.Chmod("/d", perm(t, "700")); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/d/a"); err != nil {
			t.Errorf("owner stat after restoring exec: %v", err)
		}
		carol.Refresh()
		if _, err := carol.Stat("/d/a"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol stat in revoked parent: %v", err)
		}
		// Removing the (emptied) parent drops its mark, view and refs.
		for _, n := range list(alice) {
			if err := alice.Remove("/d/" + n); err != nil {
				t.Fatal(err)
			}
		}
		if err := alice.Remove("/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/d/a"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("stat under removed parent: %v", err)
		}
	})
}
