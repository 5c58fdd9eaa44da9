package client

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/refmodel"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

func engMembers() refmodel.Memberships {
	members := refmodel.Memberships{}
	members.AddMember("eng", "alice")
	members.AddMember("eng", "bob")
	return members
}

// TestTailLayoutMatchesModel drives files of every size around a block
// boundary through every operation that moves the boundary — a write, an
// append across a block edge, an append landing exactly on one, an
// overwrite shrinking to a multiple, a truncating open, a revoking chmod
// (immediate re-keying), a lazy revocation honoured by the next write, and
// unlink — by two users, with and without a cache, under both schemes.
// After every step both users read what the reference model gives them and
// the store holds exactly the keys the layout rule predicts for the file's
// size and generation: full blocks under the generation's block keys, a
// tail iff the size is not a multiple of the block size, the manifest, and
// nothing a previous size or generation left behind. When everything is
// removed no data blob of any file remains.
func TestTailLayoutMatchesModel(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		for _, cacheBytes := range []int64{-1, 0} {
			t.Run(fmt.Sprintf("cache%d", cacheBytes), func(t *testing.T) { tailLayoutRun(t, w, cacheBytes) })
		}
		if left, err := w.store.List(wire.NSData, "f/"); err != nil || len(left) != 0 {
			t.Errorf("%d file blobs left after removing every file (%v): %v", len(left), err, left)
		}
	})
}

func tailLayoutRun(t *testing.T, w *world, cacheBytes int64) {
	const bs = testBlockSize
	model := refmodel.New("alice", "eng", 0o755, engMembers())
	mount := func(u types.UserID, lazy bool) *Session {
		s, err := Mount(Config{Store: w.store, User: fixUser[u], Registry: fixReg, Layout: w.eng,
			FSID: "testfs", CacheBytes: cacheBytes, BlockSize: bs, LazyRevocation: lazy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	alice, lazyAlice, bob := mount("alice", false), mount("alice", true), mount("bob", false)
	refresh := func() {
		for _, s := range []*Session{alice, lazyAlice, bob} {
			s.Refresh()
		}
	}

	// check compares both users' reads with the model and the stored keys
	// with the rule. removed files are checked by inode, which outlives them.
	check := func(step, path string, ino types.Inode) {
		t.Helper()
		refresh()
		for u, s := range map[types.UserID]*Session{"alice": alice, "bob": bob} {
			got, gerr := s.ReadFile(path)
			want, werr := model.ReadFile(u, path)
			if errClass(gerr) != errClass(werr) || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s reads %d bytes (%v), the model %d (%v)", step, u, len(got), gerr, len(want), werr)
			}
		}
		var want []string
		if content, err := model.ReadFile("alice", path); err == nil {
			_, m, err := alice.resolve(path)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			for i := 0; i < len(content)/bs; i++ {
				want = append(want, meta.BlockKey(ino, m.Attr.DataGen, uint32(i)))
			}
			if len(content)%bs != 0 {
				want = append(want, meta.TailKey(ino))
			}
			want = append(want, meta.ManifestKey(ino))
			sort.Strings(want)
		}
		stored, err := w.store.List(wire.NSData, meta.FilePrefix(ino))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, kv := range stored {
			got = append(got, kv.Key)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: the store holds %v, the rule predicts %v", step, got, want)
		}
	}

	for _, size := range []int{0, 1, bs - 1, bs, bs + 1, 2 * bs, 2*bs + 1} {
		path := fmt.Sprintf("/b%d", size)
		var ino types.Inode
		step := func(what string, op func() (got, want error)) {
			t.Helper()
			what = fmt.Sprintf("%s: %s", path, what)
			refresh()
			if got, want := op(); errClass(got) != errClass(want) || got != nil {
				t.Fatalf("%s: sharoes %v, model %v", what, got, want)
			}
			if ino == 0 {
				ino = inodeOf(t, alice, path)
			}
			check(what, path, ino)
		}
		write := func(s *Session, u types.UserID, data []byte) func() (error, error) {
			return func() (error, error) { return s.WriteFile(path, data, 0o664), model.WriteFile(u, path, data, 0o664) }
		}
		appendN := func(s *Session, u types.UserID, n int) func() (error, error) {
			data := pattern(n, byte(n))
			return func() (error, error) { return s.Append(path, data), model.Append(u, path, data) }
		}
		chmod := func(s *Session, p types.Perm) func() (error, error) {
			return func() (error, error) { return s.Chmod(path, p), model.Chmod("alice", path, p) }
		}

		step("write", write(alice, "alice", pattern(size, 1)))
		step("append across a boundary", appendN(bob, "bob", bs-size%bs+1))
		step("append landing on a boundary", appendN(alice, "alice", bs-1))
		step("append one byte", appendN(bob, "bob", 1))
		step("overwrite shrinking to a multiple", write(alice, "alice", pattern(bs, 2)))
		step("append to a file of whole blocks", appendN(bob, "bob", 3))
		step("truncating open, then a block and a bit", func() (error, error) {
			f, err := bob.OpenFile(path, OWrite|OTrunc, 0)
			if err != nil {
				return err, nil
			}
			data := pattern(bs+6, 3)
			if _, err := f.Write(data); err != nil {
				return err, nil
			}
			return f.Close(), model.WriteFile("bob", path, data, 0)
		})
		step("truncating open, nothing written", func() (error, error) {
			f, err := bob.OpenFile(path, OWrite|OTrunc, 0)
			if err != nil {
				return err, nil
			}
			return f.Close(), model.WriteFile("bob", path, nil, 0)
		})
		step("write back", write(bob, "bob", pattern(size, 4)))
		step("revoking chmod re-keys", chmod(alice, 0o600))
		step("granting chmod", chmod(alice, 0o664))
		step("lazy revocation", chmod(lazyAlice, 0o644))
		step("the owner's next write rotates, to a multiple", write(lazyAlice, "alice", pattern(2*bs, 5)))
		step("granting chmod", chmod(alice, 0o664))
		step("append after the rotation", appendN(bob, "bob", size+1))
		step("lazy revocation", chmod(lazyAlice, 0o644))
		step("the owner's next write rotates, to the size it started with", write(lazyAlice, "alice", pattern(size, 6)))
		step("remove", func() (error, error) { return alice.Remove(path), model.Remove("alice", path) })
	}
}

// TestAppendKeepsTheFilesBlockSize: which blob is a file's tail must not
// depend on who asks. Two sessions mounted with different block sizes
// alternate appends and reads on files each of them created; every read
// matches the model, and an append keeps the block size the file was
// written with rather than rewriting the manifest with its own.
func TestAppendKeepsTheFilesBlockSize(t *testing.T) {
	fixture(t)
	w := newWorld(t, layout.NewScheme2(fixReg), ssp.NewMemStore())
	model := refmodel.New("alice", "eng", 0o755, engMembers())
	sess := make([]*Session, 2)
	for i, bs := range []uint32{64, 96} {
		s, err := Mount(Config{Store: w.store, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
			FSID: "testfs", CacheBytes: 0, BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sess[i] = s
	}
	for creator, path := range []string{"/by64", "/by96"} {
		data := pattern(100, byte(creator))
		mustDo(t, sess[creator].WriteFile(path, data, 0o644))
		mustDo(t, model.WriteFile("alice", path, data, 0o644))
		for round, n := range []int{1, 27, 64, 96, 5, 130, 59} {
			s := sess[(creator+round+1)%2] // the other session first
			data := pattern(n, byte(round))
			mustDo(t, s.Append(path, data))
			mustDo(t, model.Append("alice", path, data))
			want, err := model.ReadFile("alice", path)
			if err != nil {
				t.Fatal(err)
			}
			for i, reader := range sess {
				if got, err := reader.ReadFile(path); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s after append %d: session %d reads %d bytes (%v), the model has %d", path, round, i, len(got), err, len(want))
				}
			}
			r, m, err := s.resolve(path)
			if err != nil {
				t.Fatal(err)
			}
			man, _, err := s.fetchManifest(r, m, nil, withManifest)
			if err != nil {
				t.Fatal(err)
			}
			if want := sess[creator].blockSize; man.BlockSize != want {
				t.Fatalf("%s after append %d: manifest block size %d, the file was written with %d", path, round, man.BlockSize, want)
			}
		}
		mustDo(t, sess[1-creator].Remove(path))
	}
	if left, err := w.store.List(wire.NSData, "f/"); err != nil || len(left) != 0 {
		t.Errorf("%d file blobs left after removing every file (%v)", len(left), err)
	}
}
