package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
)

// Shared user fixture (RSA keygen is slow). alice owns the filesystem,
// bob shares her "eng" group, carol and dave are others; carol is also in
// "qa".
var (
	fixOnce sync.Once
	fixReg  *keys.Registry
	fixUser map[types.UserID]*keys.User
)

func fixture(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		fixReg = keys.NewRegistry()
		fixUser = make(map[types.UserID]*keys.User)
		for _, id := range []types.UserID{"alice", "bob", "carol", "dave"} {
			u, err := keys.NewUser(id)
			if err != nil {
				t.Fatal(err)
			}
			fixUser[id] = u
			fixReg.AddUser(id, u.Public())
		}
		eng, err := keys.NewGroup("eng")
		if err != nil {
			t.Fatal(err)
		}
		fixReg.AddGroup("eng", eng.Priv.Public())
		fixReg.AddMember("eng", "alice")
		fixReg.AddMember("eng", "bob")
		qa, err := keys.NewGroup("qa")
		if err != nil {
			t.Fatal(err)
		}
		fixReg.AddGroup("qa", qa.Priv.Public())
		fixReg.AddMember("qa", "carol")
	})
}

// newObjectKeys mints the complete key set of a new Sharoes object.
func newObjectKeys() meta.KeySet { return layout.NewScheme2(fixReg).NewKeys(nil) }

// world is one bootstrapped filesystem plus mounted sessions.
type world struct {
	t     *testing.T
	store ssp.BlobStore
	eng   layout.Engine
	sess  map[types.UserID]*Session
}

// schemes runs the test body under both layout schemes.
func schemes(t *testing.T, body func(t *testing.T, w *world)) {
	fixture(t)
	for _, name := range []string{"scheme2", "scheme1"} {
		t.Run(name, func(t *testing.T) {
			var eng layout.Engine
			if name == "scheme1" {
				eng = layout.NewScheme1(fixReg)
			} else {
				eng = layout.NewScheme2(fixReg)
			}
			body(t, newWorld(t, eng, ssp.NewMemStore()))
		})
	}
}

func newWorld(t *testing.T, eng layout.Engine, store ssp.BlobStore) *world {
	t.Helper()
	err := migrate.Bootstrap(migrate.Options{
		Store: store, Registry: fixReg, Layout: eng,
		FSID: "testfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, store: store, eng: eng, sess: make(map[types.UserID]*Session)}
	t.Cleanup(func() {
		for _, s := range w.sess {
			s.Close()
		}
	})
	return w
}

// as returns (mounting on first use) a session for the given user.
func (w *world) as(id types.UserID) *Session {
	w.t.Helper()
	if s, ok := w.sess[id]; ok {
		return s
	}
	s := w.mountFresh(id, -1)
	w.sess[id] = s
	return s
}

// mountFresh mounts a brand-new session (empty cache) for the user.
func (w *world) mountFresh(id types.UserID, cacheBytes int64) *Session {
	w.t.Helper()
	s, err := Mount(Config{
		Store: w.store, User: fixUser[id], Registry: fixReg, Layout: w.eng,
		FSID: "testfs", CacheBytes: cacheBytes, BlockSize: 64, // tiny blocks: exercise multi-block paths
	})
	if err != nil {
		w.t.Fatalf("mount %s: %v", id, err)
	}
	return s
}

func perm(t testing.TB, s string) types.Perm {
	t.Helper()
	p, err := types.ParsePerm(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMountUnknownUser(t *testing.T) {
	fixture(t)
	store := ssp.NewMemStore()
	eng := layout.NewScheme2(fixReg)
	if err := migrate.Bootstrap(migrate.Options{Store: store, Registry: fixReg, Layout: eng,
		FSID: "fs", RootOwner: "alice", RootGroup: "eng"}); err != nil {
		t.Fatal(err)
	}
	mallory, err := keys.NewUser("mallory") // not in the registry at bootstrap
	if err != nil {
		t.Fatal(err)
	}
	_, err = Mount(Config{Store: store, User: mallory, Registry: fixReg, Layout: eng, FSID: "fs"})
	if !errors.Is(err, types.ErrPermission) {
		t.Errorf("mallory mount: %v", err)
	}
}

func TestMountMissingConfig(t *testing.T) {
	if _, err := Mount(Config{}); err == nil {
		t.Error("empty config mounted")
	}
}

func TestStatRoot(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		for _, id := range []types.UserID{"alice", "bob", "carol"} {
			info, err := w.as(id).Stat("/")
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !info.IsDir() || info.Owner != "alice" || info.Group != "eng" || info.Perm != 0o755 {
				t.Errorf("%s: root info = %+v", id, info)
			}
		}
	})
}

func TestMkdirStatReaddir(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/projects", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/projects/sharoes", perm(t, "750")); err != nil {
			t.Fatal(err)
		}
		info, err := alice.Stat("/projects/sharoes")
		if err != nil {
			t.Fatal(err)
		}
		if !info.IsDir() || info.Perm != 0o750 || info.Owner != "alice" || info.Group != "eng" {
			t.Errorf("info = %+v", info)
		}
		names, err := alice.ReadDir("/projects")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != "sharoes" {
			t.Errorf("names = %v", names)
		}
		// Another user sees it too (fresh view of shared state).
		names, err = w.as("bob").ReadDir("/projects")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != "sharoes" {
			t.Errorf("bob names = %v", names)
		}
	})
}

func TestMkdirErrors(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/d", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/d", perm(t, "755")); !errors.Is(err, types.ErrExist) {
			t.Errorf("duplicate mkdir: %v", err)
		}
		if err := alice.Mkdir("/missing/sub", perm(t, "755")); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("mkdir under missing: %v", err)
		}
		if err := alice.Mkdir("/d/bad", perm(t, "753")); !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("unsupported perm: %v", err)
		}
		if err := alice.Mkdir("relative", perm(t, "755")); !errors.Is(err, types.ErrInvalidPath) {
			t.Errorf("relative path: %v", err)
		}
		// carol (other, r-x on /) cannot create at root.
		if err := w.as("carol").Mkdir("/carols", perm(t, "755")); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol mkdir: %v", err)
		}
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		for _, size := range []int{0, 1, 63, 64, 65, 200, 1000} {
			data := bytes.Repeat([]byte{0xA5}, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			path := fmt.Sprintf("/f%d", size)
			if err := alice.WriteFile(path, data, perm(t, "644")); err != nil {
				t.Fatalf("write %d: %v", size, err)
			}
			got, err := alice.ReadFile(path)
			if err != nil {
				t.Fatalf("read %d: %v", size, err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("size %d: content mismatch", size)
			}
			info, err := alice.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != uint64(size) || info.Kind != types.KindFile {
				t.Errorf("size %d: info = %+v", size, info)
			}
		}
	})
}

func TestOverwriteShrinksAndGrows(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		big := bytes.Repeat([]byte("large"), 100) // 500 bytes ⇒ 8 blocks at bs=64
		if err := alice.WriteFile("/f", big, perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		small := []byte("tiny")
		if err := alice.WriteFile("/f", small, perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		// A fresh session (no cache) must see exactly the new content —
		// stale trailing blocks must be gone.
		fresh := w.mountFresh("alice", -1)
		defer fresh.Close()
		got, err := fresh.ReadFile("/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, small) {
			t.Errorf("got %q", got)
		}
		// And grow again.
		if err := alice.WriteFile("/f", big, perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if got, _ := alice.ReadFile("/f"); !bytes.Equal(got, big) {
			t.Error("grow lost data")
		}
	})
}

func TestAppend(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Create("/log", perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i := 0; i < 10; i++ {
			chunk := bytes.Repeat([]byte{byte('a' + i)}, 23) // crosses 64-byte blocks
			if err := alice.Append("/log", chunk); err != nil {
				t.Fatal(err)
			}
			want = append(want, chunk...)
		}
		got, err := alice.ReadFile("/log")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("append content mismatch: %d vs %d bytes", len(got), len(want))
		}
		// Fresh session agrees.
		fresh := w.mountFresh("alice", -1)
		defer fresh.Close()
		if got, _ := fresh.ReadFile("/log"); !bytes.Equal(got, want) {
			t.Error("fresh session sees different append result")
		}
		if err := alice.Append("/missing", []byte("x")); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("append missing: %v", err)
		}
	})
}

func TestRemove(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("x"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/d", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/d/inner", []byte("y"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Remove("/d"); !errors.Is(err, types.ErrNotEmpty) {
			t.Errorf("remove non-empty: %v", err)
		}
		if err := alice.Remove("/d/inner"); err != nil {
			t.Fatal(err)
		}
		if err := alice.Remove("/d"); err != nil {
			t.Fatal(err)
		}
		if err := alice.Remove("/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/f"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("stat removed: %v", err)
		}
		if err := alice.Remove("/f"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("remove twice: %v", err)
		}
		// carol can't remove what she can't write.
		if err := alice.WriteFile("/g", []byte("z"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := w.as("carol").Remove("/g"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("carol remove: %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/a", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/b", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/a/doc", []byte("contents"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		// Same-directory rename.
		if err := alice.Rename("/a/doc", "/a/paper"); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/a/doc"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("old name survives: %v", err)
		}
		if got, err := alice.ReadFile("/a/paper"); err != nil || string(got) != "contents" {
			t.Errorf("renamed read = %q, %v", got, err)
		}
		// Cross-directory, same ownership domain.
		if err := alice.Rename("/a/paper", "/b/paper"); err != nil {
			t.Fatal(err)
		}
		if got, err := alice.ReadFile("/b/paper"); err != nil || string(got) != "contents" {
			t.Errorf("moved read = %q, %v", got, err)
		}
		// Other users still resolve it correctly.
		if got, err := w.as("bob").ReadFile("/b/paper"); err != nil || string(got) != "contents" {
			t.Errorf("bob moved read = %q, %v", got, err)
		}
		// Destination collision.
		if err := alice.WriteFile("/b/other", []byte("o"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Rename("/b/other", "/b/paper"); !errors.Is(err, types.ErrExist) {
			t.Errorf("rename onto existing: %v", err)
		}
		if err := alice.Rename("/missing", "/b/x"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("rename missing: %v", err)
		}
	})
}

func TestPathThroughFile(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("x"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if _, err := alice.Stat("/f/sub"); !errors.Is(err, types.ErrNotDir) {
			t.Errorf("stat through file: %v", err)
		}
		if _, err := alice.ReadDir("/f"); !errors.Is(err, types.ErrNotDir) {
			t.Errorf("readdir of file: %v", err)
		}
		if _, err := alice.ReadFile("/"); !errors.Is(err, types.ErrIsDir) {
			t.Errorf("readfile of dir: %v", err)
		}
	})
}

func TestMultiUserSharedState(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		bob := w.as("bob")
		// Root is group-writable? No: 755. Make a shared dir.
		if err := alice.Mkdir("/shared", perm(t, "775")); err != nil {
			t.Fatal(err)
		}
		if err := bob.WriteFile("/shared/from-bob", []byte("hi alice"), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		got, err := alice.ReadFile("/shared/from-bob")
		if err != nil || string(got) != "hi alice" {
			t.Fatalf("alice read = %q, %v", got, err)
		}
		// alice edits; bob sees the edit after refreshing his cache (the
		// prototype has no cross-client coherence protocol; consistency
		// is deferred to a SUNDR-style integration per paper §VI).
		if err := alice.WriteFile("/shared/from-bob", []byte("hi bob"), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		bob.Refresh()
		got, err = bob.ReadFile("/shared/from-bob")
		if err != nil || string(got) != "hi bob" {
			t.Fatalf("bob read = %q, %v", got, err)
		}
		// Bob's file is owned by bob, group eng (inherited from /shared).
		info, err := alice.Stat("/shared/from-bob")
		if err != nil {
			t.Fatal(err)
		}
		if info.Owner != "bob" || info.Group != "eng" {
			t.Errorf("ownership = %s:%s", info.Owner, info.Group)
		}
	})
}

func TestStatSizeAfterNonOwnerWrite(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.WriteFile("/f", []byte("12345"), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		// bob (group, rw) grows the file; he cannot re-sign metadata, but
		// stat must still see the new size via the writer-signed manifest.
		if err := w.as("bob").WriteFile("/f", bytes.Repeat([]byte("x"), 999), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		fresh := w.mountFresh("carol", -1) // carol has other=r
		defer fresh.Close()
		info, err := fresh.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		if info.Size != 999 {
			t.Errorf("stat size = %d, want 999", info.Size)
		}
	})
}

// TestDiskStoreDurability runs the client against the disk-backed SSP
// store and remounts after "restarting" the store.
func TestDiskStoreDurability(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	store, err := ssp.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := layout.NewScheme2(fixReg)
	if err := migrate.Bootstrap(migrate.Options{Store: store, Registry: fixReg, Layout: eng,
		FSID: "diskfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755}); err != nil {
		t.Fatal(err)
	}
	s, err := Mount(Config{Store: store, User: fixUser["alice"], Registry: fixReg,
		Layout: eng, FSID: "diskfs", CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdir("/persist", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("/persist/data", []byte("survives restarts"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// "Restart": a brand-new store handle over the same directory.
	store2, err := ssp.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Mount(Config{Store: store2, User: fixUser["bob"], Registry: fixReg,
		Layout: eng, FSID: "diskfs", CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.ReadFile("/persist/data")
	if err != nil || string(got) != "survives restarts" {
		t.Fatalf("after restart = %q, %v", got, err)
	}
	rep, err := s2.Verify("/")
	if err != nil || !rep.OK() {
		t.Fatalf("verify after restart: %v / %+v", err, rep)
	}
}

// TestRenameCrossDomain: moving between directories with different
// ownership domains recomputes routing rows, which requires owning the
// moved object.
func TestRenameCrossDomain(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		// Two parents with different groups: different traveller sets.
		if err := alice.Mkdir("/eng-dir", perm(t, "775")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/qa-dir", perm(t, "775")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Chown("/qa-dir", "alice", "qa"); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/eng-dir/doc", []byte("owned by alice"), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		// alice owns the file: the move recomputes rows and succeeds.
		if err := alice.Rename("/eng-dir/doc", "/qa-dir/doc"); err != nil {
			t.Fatalf("owner cross-domain rename: %v", err)
		}
		if got, err := alice.ReadFile("/qa-dir/doc"); err != nil || string(got) != "owned by alice" {
			t.Fatalf("after move = %q, %v", got, err)
		}
		// carol (qa) can read it through the new parent; bob (eng) can
		// also read it (664: group is the file's group, eng).
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if got, err := carol.ReadFile("/qa-dir/doc"); err != nil || string(got) != "owned by alice" {
			t.Errorf("carol after move = %q, %v", got, err)
		}

		// bob does NOT own alice's file: his cross-domain move is refused.
		if err := alice.WriteFile("/eng-dir/shared", []byte("x"), perm(t, "664")); err != nil {
			t.Fatal(err)
		}
		bob := w.as("bob")
		bob.Refresh()
		if err := bob.Rename("/eng-dir/shared", "/qa-dir/shared"); !errors.Is(err, types.ErrPermission) {
			t.Errorf("non-owner cross-domain rename: %v", err)
		}
		// Same-domain moves by a mere writer still work.
		if err := alice.Mkdir("/eng-dir2", perm(t, "775")); err != nil {
			t.Fatal(err)
		}
		bob.Refresh()
		if err := bob.Rename("/eng-dir/shared", "/eng-dir2/shared"); err != nil {
			t.Errorf("same-domain writer rename: %v", err)
		}
	})
}

// TestRenameDirectorySubtree: moving a directory keeps its whole subtree
// reachable for every user.
func TestRenameDirectorySubtree(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		alice := w.as("alice")
		if err := alice.Mkdir("/old", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/old/tree", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		if err := alice.WriteFile("/old/tree/leaf", []byte("leafdata"), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
		if err := alice.Rename("/old/tree", "/moved"); err != nil {
			t.Fatal(err)
		}
		if got, err := alice.ReadFile("/moved/leaf"); err != nil || string(got) != "leafdata" {
			t.Fatalf("after dir move = %q, %v", got, err)
		}
		carol := w.mountFresh("carol", -1)
		defer carol.Close()
		if got, err := carol.ReadFile("/moved/leaf"); err != nil || string(got) != "leafdata" {
			t.Errorf("carol after dir move = %q, %v", got, err)
		}
		if _, err := alice.Stat("/old/tree"); !errors.Is(err, types.ErrNotExist) {
			t.Errorf("old location: %v", err)
		}
	})
}
