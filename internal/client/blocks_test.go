package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/refmodel"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// testBlockSize is the block size newWorld mounts with.
const testBlockSize = 64

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + salt
	}
	return b
}

// TestMultiBlockRoundTripsMatchModel: files of 1, 2, 16 and 17 blocks —
// inline, the smallest parallel case, the bulk shape and one past it —
// written, appended across block boundaries, shrunk and read back must
// agree with the reference model byte for byte, through a warm writer, a
// cold reader with a cache and a cold reader without one (which opens
// every block on every read).
func TestMultiBlockRoundTripsMatchModel(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		members := refmodel.Memberships{}
		members.AddMember("eng", "alice")
		members.AddMember("eng", "bob")
		model := refmodel.New("alice", "eng", 0o755, members)
		alice := w.as("alice")

		check := func(path, step string) {
			t.Helper()
			want, err := model.ReadFile("bob", path)
			if err != nil {
				t.Fatalf("%s %s: model: %v", path, step, err)
			}
			for name, cacheBytes := range map[string]int64{"cached": -1, "uncached": 0} {
				bob := w.mountFresh("bob", cacheBytes)
				for pass := 0; pass < 2; pass++ { // second pass: cache hits, or a full re-open
					got, err := bob.ReadFile(path)
					if err != nil {
						t.Fatalf("%s %s: %s bob pass %d: %v", path, step, name, pass, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %s: %s bob pass %d read %d bytes, model has %d", path, step, name, pass, len(got), len(want))
					}
				}
				bob.Close()
			}
			got, err := alice.ReadFile(path)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s %s: warm writer read %d bytes (%v), model has %d", path, step, len(got), err, len(want))
			}
			info, err := alice.Stat(path)
			if err != nil || info.Size != uint64(len(want)) {
				t.Fatalf("%s %s: stat size %d (%v), model has %d", path, step, info.Size, err, len(want))
			}
		}
		both := func(step string, fs func() error, ref func() error) {
			t.Helper()
			if err := fs(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if err := ref(); err != nil {
				t.Fatalf("%s: model: %v", step, err)
			}
		}

		for _, blocks := range []int{1, 2, 16, 17} {
			for _, short := range []int{0, 5} { // exact multiple, and a partial last block
				path := fmt.Sprintf("/f-%d-%d", blocks, short)
				data := pattern(blocks*testBlockSize-short, byte(blocks))
				both("write "+path,
					func() error { return alice.WriteFile(path, data, 0o640) },
					func() error { return model.WriteFile("alice", path, data, 0o640) })
				check(path, "after write")

				// Append: fill or start the next block, then a run long
				// enough to add sixteen more in one call.
				for i, n := range []int{1, testBlockSize, 16*testBlockSize + 7} {
					tail := pattern(n, byte(0x40+i))
					both(fmt.Sprintf("append %d to %s", n, path),
						func() error { return alice.Append(path, tail) },
						func() error { return model.Append("alice", path, tail) })
					check(path, fmt.Sprintf("after append %d", n))
				}

				// Overwrite shorter: trailing blocks must go.
				small := pattern(testBlockSize+1, 0x7f)
				both("shrink "+path,
					func() error { return alice.WriteFile(path, small, 0o640) },
					func() error { return model.WriteFile("alice", path, small, 0o640) })
				check(path, "after shrink")
			}
		}
	})
}

// TestRereadFetchesOnlyWhatIsMissing: a cold read of a 17-block file is the
// metadata, manifest and tail in one fetch and the sixteen full blocks in
// another. With metadata and manifest cached nothing is asked ahead: the
// blocks the cache lost, the tail among them, are named in one fetch. With
// the manifest lost too it comes back with the tail, not one fetch each.
func TestRereadFetchesOnlyWhatIsMissing(t *testing.T) {
	fixture(t)
	cs := &countingStore{BlobStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), cs)
	data := pattern(16*testBlockSize+5, 3)
	if err := w.as("alice").WriteFile("/big", data, 0o644); err != nil {
		t.Fatal(err)
	}
	bob := w.mountFresh("bob", -1)
	defer bob.Close()
	for _, tc := range []struct {
		what    string
		lose    []string
		batches []int
	}{
		{"cold", nil, []int{2, 3, 16}},
		{"blocks lost", []string{ckBlock}, []int{17}},
		{"blocks and manifest lost", []string{ckBlock, ckManifest}, []int{2, 16}},
		{"nothing lost", nil, nil},
	} {
		if tc.lose != nil {
			bob.cache.DeletePrefix(tc.lose...)
		}
		cs.take()
		if got, err := bob.ReadFile("/big"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: read %d bytes, %v", tc.what, len(got), err)
		}
		if calls, batches := cs.take(); calls != len(tc.batches) || fmt.Sprint(batches) != fmt.Sprint(tc.batches) {
			t.Errorf("%s: %d store calls, batches %v; want %v", tc.what, calls, batches, tc.batches)
		}
	}
}

// blockKeys lists the stored keys of a file's full blocks in index order.
func blockKeys(t *testing.T, store ssp.BlobStore, ino types.Inode, n int) []string {
	t.Helper()
	kvs, err := store.List(wire.NSData, meta.FilePrefix(ino))
	if err != nil {
		t.Fatal(err)
	}
	byIdx := make(map[string]string)
	for _, kv := range kvs {
		if i := strings.LastIndexByte(kv.Key, '/'); kv.Key != meta.ManifestKey(ino) && kv.Key != meta.TailKey(ino) {
			byIdx[kv.Key[i+1:]] = kv.Key
		}
	}
	keys := make([]string, n)
	for i := range keys {
		k, ok := byIdx[fmt.Sprint(i)]
		if !ok {
			t.Fatalf("block %d of inode %d not in the store (have %d blobs)", i, ino, len(kvs))
		}
		keys[i] = k
	}
	return keys
}

// TestCorruptBlockFailsReadAndIsNeverCached: damage block k of a 16-block
// file at the store — a flipped ciphertext bit, a flipped signature bit,
// or a sibling block of the same file served in its place — and a reader
// gets ErrTampered for the whole read, the damaged block is not in its
// cache, whatever else is cached is the true plaintext, and the same
// session reads correctly once the store is repaired.
func TestCorruptBlockFailsReadAndIsNeverCached(t *testing.T) {
	fixture(t)
	store := ssp.NewMemStore()
	w := newWorld(t, layout.NewScheme2(fixReg), store)
	const nBlocks = 16
	data := pattern(nBlocks*testBlockSize, 1)
	if err := w.as("alice").WriteFile("/big", data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := w.as("alice").Stat("/big")
	if err != nil {
		t.Fatal(err)
	}
	keys := blockKeys(t, store, info.Inode, nBlocks)

	damage := map[string]func(k int, honest []byte) []byte{
		"ciphertext bit": func(_ int, honest []byte) []byte {
			mut := append([]byte(nil), honest...)
			mut[len(mut)/3] ^= 0x10
			return mut
		},
		"signature bit": func(_ int, honest []byte) []byte {
			mut := append([]byte(nil), honest...)
			mut[len(mut)-1] ^= 0x01
			return mut
		},
		"sibling block": func(k int, _ []byte) []byte {
			other, err := store.Get(wire.NSData, keys[(k+1)%nBlocks])
			if err != nil {
				t.Fatal(err)
			}
			return other
		},
	}
	for name, mutate := range damage {
		for _, k := range []int{0, 7, nBlocks - 1} {
			t.Run(fmt.Sprintf("%s/block%d", name, k), func(t *testing.T) {
				honest, err := store.Get(wire.NSData, keys[k])
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Put(wire.NSData, keys[k], mutate(k, honest)); err != nil {
					t.Fatal(err)
				}
				bob := w.mountFresh("bob", -1)
				defer bob.Close()
				got, err := bob.ReadFile("/big")
				if !errors.Is(err, types.ErrTampered) {
					t.Fatalf("read over damaged block %d: %d bytes, err %v", k, len(got), err)
				}
				if got != nil {
					t.Errorf("a failed read returned %d bytes", len(got))
				}
				if _, ok := bob.cache.Get(ckBlock + keys[k]); ok {
					t.Errorf("damaged block %d is in the cache", k)
				}
				for i, key := range keys {
					if v, ok := bob.cache.Get(ckBlock + key); ok {
						if want := data[i*testBlockSize : (i+1)*testBlockSize]; !bytes.Equal(v.([]byte), want) {
							t.Errorf("cached block %d is not the plaintext the writer sealed", i)
						}
					}
				}

				if err := store.Put(wire.NSData, keys[k], honest); err != nil {
					t.Fatal(err)
				}
				if got, err := bob.ReadFile("/big"); err != nil || !bytes.Equal(got, data) {
					t.Errorf("read after repair: %d bytes, %v", len(got), err)
				}
			})
		}
	}
}

// TestReadBlocksRejectsMisdirectedReplies: a BatchGet reply that answers
// with a key nobody asked for, or with the same key twice in place of a
// missing one, fails the read instead of leaving a hole in the file.
func TestReadBlocksRejectsMisdirectedReplies(t *testing.T) {
	fixture(t)
	store := &replyEditor{BlobStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), store)
	data := pattern(4*testBlockSize, 9)
	if err := w.as("alice").WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func([]wire.KV) []wire.KV{
		"duplicate in place of a block": func(items []wire.KV) []wire.KV {
			items[1] = items[0]
			return items
		},
		"unrequested key": func(items []wire.KV) []wire.KV {
			items[2].Key += "0"
			return items
		},
	} {
		bob := w.mountFresh("bob", 0)
		store.setEdit(func(items []wire.KV) []wire.KV {
			if len(items) == 4 { // the block fetch, not the stat batch
				return edit(items)
			}
			return items
		})
		if got, err := bob.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
			t.Errorf("%s: read %d bytes, err %v", name, len(got), err)
		}
		store.setEdit(nil)
		if got, err := bob.ReadFile("/f"); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: honest reread: %d bytes, %v", name, len(got), err)
		}
		bob.Close()
	}
}

// replyEditor is a BlobStore whose BatchGet replies a test can rewrite.
type replyEditor struct {
	ssp.BlobStore
	mu   sync.Mutex
	edit func([]wire.KV) []wire.KV
}

func (r *replyEditor) setEdit(fn func([]wire.KV) []wire.KV) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.edit = fn
}

func (r *replyEditor) BatchGet(items []wire.KV) ([]wire.KV, error) {
	out, err := r.BlobStore.BatchGet(items)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil && r.edit != nil {
		out = r.edit(out)
	}
	return out, err
}

// TestWriterCachePrimingRespectsBudget: a write primes the cache with its
// own plaintext only where the cache can hold a block; with the cache off
// nothing is copied or kept, and with a budget below one block no block
// is kept, and reads stay correct either way.
func TestWriterCachePrimingRespectsBudget(t *testing.T) {
	fixture(t)
	w := newWorld(t, layout.NewScheme2(fixReg), ssp.NewMemStore())
	data := pattern(4*testBlockSize, 4)
	for name, tc := range map[string]struct {
		budget     int64
		wantBlocks bool
	}{"off": {0, false}, "smaller than a block": {testBlockSize - 1, false}, "unlimited": {-1, true}} {
		s := w.mountFresh("alice", tc.budget)
		path := "/prime-" + strings.ReplaceAll(name, " ", "-")
		if err := s.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := s.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, key := range blockKeys(t, w.store, info.Inode, 4) {
			v, ok := s.cache.Get(ckBlock + key)
			if ok != tc.wantBlocks {
				t.Errorf("%s: block %d cached=%v, want %v", name, i, ok, tc.wantBlocks)
			}
			if ok && &v.([]byte)[0] == &data[i*testBlockSize] {
				t.Errorf("%s: cached block %d aliases the caller's buffer", name, i)
			}
		}
		if got, err := s.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: read back %d bytes, %v", name, len(got), err)
		}
		s.Close()
	}
}

// TestConcurrentMultiBlockSessions is the -race stress for the parallel
// block path (make race): two sessions, each on its own goroutine as the
// contract requires, write, append to and read 17-block files — every
// seal and open fans out across the worker pool inside each session —
// while also reading a shared file the other session's worker pool is
// opening at the same moment. Both share the store, the registry, the
// layout engine and (through the shared file's metadata) nothing else.
func TestConcurrentMultiBlockSessions(t *testing.T) {
	fixture(t)
	w := newWorld(t, layout.NewScheme2(fixReg), ssp.NewMemStore())
	setup := w.as("alice")
	shared := pattern(17*testBlockSize-3, 0x55)
	if err := setup.WriteFile("/shared", shared, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := setup.Mkdir(fmt.Sprintf("/s%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One session caches (blocks are inserted after each join),
			// the other does not (every read re-opens all 17 blocks).
			s := w.mountFresh("alice", int64(-1+i))
			defer s.Close()
			errs[i] = func() error {
				for round := 0; round < 12; round++ {
					path := fmt.Sprintf("/s%d/f%d", i, round%3)
					body := pattern(16*testBlockSize+round, byte(i*16+round))
					if err := s.WriteFile(path, body, 0o644); err != nil {
						return fmt.Errorf("session %d round %d write: %w", i, round, err)
					}
					tail := pattern(2*testBlockSize, byte(round))
					if err := s.Append(path, tail); err != nil {
						return fmt.Errorf("session %d round %d append: %w", i, round, err)
					}
					if round%2 == 1 {
						s.Refresh()
					}
					got, err := s.ReadFile(path)
					if err != nil || !bytes.Equal(got, append(body, tail...)) {
						return fmt.Errorf("session %d round %d read back %d bytes: %v", i, round, len(got), err)
					}
					got, err = s.ReadFile("/shared")
					if err != nil || !bytes.Equal(got, shared) {
						return fmt.Errorf("session %d round %d shared read %d bytes: %v", i, round, len(got), err)
					}
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
