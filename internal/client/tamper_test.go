package client

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// tamperWorld bootstraps a filesystem behind a FaultStore so tests can
// model a malicious SSP (paper §VII: the SSP is trusted to store, not with
// confidentiality or access control; attacks must be *detected*).
func tamperWorld(t *testing.T) (*ssp.FaultStore, *Session) {
	t.Helper()
	fixture(t)
	fs := ssp.NewFaultStore(ssp.NewMemStore())
	eng := layout.NewScheme2(fixReg)
	err := migrate.Bootstrap(migrate.Options{Store: fs, Registry: fixReg, Layout: eng,
		FSID: "testfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Mount(Config{Store: fs, User: fixUser["alice"], Registry: fixReg, Layout: eng,
		FSID: "testfs", CacheBytes: 0, BlockSize: 64}) // cache disabled: every read hits the SSP
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return fs, s
}

func TestTamperedMetadataDetected(t *testing.T) {
	fs, alice := tamperWorld(t)
	if err := alice.WriteFile("/f", []byte("authentic"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSMeta})
	if _, err := alice.Stat("/f"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("stat over tampered metadata: %v", err)
	}
	fs.ClearRules()
	if _, err := alice.Stat("/f"); err != nil {
		t.Errorf("stat after clearing faults: %v", err)
	}
}

func TestTamperedDataBlockDetected(t *testing.T) {
	fs, alice := tamperWorld(t)
	if err := alice.WriteFile("/f", []byte("block content that spans multiple 64-byte blocks for certain........"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: "f/"})
	if _, err := alice.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("read of tampered block: %v", err)
	}
}

func TestTamperedDirTableDetected(t *testing.T) {
	fs, alice := tamperWorld(t)
	if err := alice.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: "t/"})
	if _, err := alice.ReadDir("/d"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("readdir of tampered table: %v", err)
	}
}

// TestSwappedObjectDetected: the SSP serves a different, validly-sealed
// object in place of the requested one. AAD location binding catches it.
func TestSwappedObjectDetected(t *testing.T) {
	fs, alice := tamperWorld(t)
	if err := alice.WriteFile("/a", []byte("content a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := alice.WriteFile("/b", []byte("content b"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Swap the two files' tail blocks — all the content either has.
	tailA, tailB := meta.TailKey(inodeOf(t, alice, "/a")), meta.TailKey(inodeOf(t, alice, "/b"))
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultSwap, NS: wire.NSData, KeyPart: tailA, SwapKey: tailB})
	// One of the two reads must hit the swap and fail; neither may
	// silently return the other file's content.
	gotA, errA := alice.ReadFile("/a")
	gotB, errB := alice.ReadFile("/b")
	if errA == nil && errB == nil {
		t.Fatal("both reads succeeded through a swap")
	}
	if errA == nil && string(gotA) != "content a" {
		t.Errorf("/a returned foreign content %q", gotA)
	}
	if errB == nil && string(gotB) != "content b" {
		t.Errorf("/b returned foreign content %q", gotB)
	}
}

func inodeOf(t *testing.T, s *Session, path string) types.Inode {
	t.Helper()
	info, err := s.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Inode
}

// TestSubstitutedTailDetected: the tail block lives under a key that says
// neither which generation nor which index nor which length it has, so the
// SSP can answer for it with blobs the file's own writer once signed. Each
// is refused — by the AAD (label, generation, index) or, for a tail kept
// from when the file was shorter, which verifies under the very same AAD,
// by its length against the manifest — on ReadFile and on Append alike. A
// refused Append writes nothing: appending to the replayed tail would have
// a legitimate writer re-sign it, and the file would then fail every read.
// Nothing of the substitute reaches a cache, and the same sessions work
// once the SSP serves the honest tail again.
func TestSubstitutedTailDetected(t *testing.T) {
	for name, prepare := range map[string]func(t *testing.T, store ssp.BlobStore, alice *Session) (substitute []byte){
		"stale shorter tail": func(t *testing.T, store ssp.BlobStore, alice *Session) []byte {
			mustDo(t, alice.WriteFile("/f", pattern(10, 1), 0o644))
			old := mustGet(t, store, meta.TailKey(inodeOf(t, alice, "/f")))
			mustDo(t, alice.Append("/f", pattern(6, 2))) // same block, same index, longer
			return old
		},
		"full block under the tail key": func(t *testing.T, store ssp.BlobStore, alice *Session) []byte {
			mustDo(t, alice.WriteFile("/f", pattern(testBlockSize+6, 3), 0o644))
			return mustGet(t, store, meta.BlockKey(inodeOf(t, alice, "/f"), 0, 0))
		},
		"tail of index k after the file grew to k+1": func(t *testing.T, store ssp.BlobStore, alice *Session) []byte {
			mustDo(t, alice.WriteFile("/f", pattern(testBlockSize+6, 4), 0o644))
			old := mustGet(t, store, meta.TailKey(inodeOf(t, alice, "/f")))
			mustDo(t, alice.Append("/f", pattern(testBlockSize-4, 5))) // block 1 fills up; the tail is block 2 now
			return old
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs, alice := tamperWorld(t)
			store := fs.Inner
			substitute := prepare(t, store, alice)
			want, err := alice.ReadFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			tailKey := meta.TailKey(inodeOf(t, alice, "/f"))
			honest := mustGet(t, store, tailKey)
			mustDo(t, store.Put(wire.NSData, tailKey, substitute))
			before, err := store.List(wire.NSData, "f/")
			if err != nil {
				t.Fatal(err)
			}

			cached, err := Mount(Config{Store: fs, User: fixUser["alice"], Registry: fixReg, Layout: layout.NewScheme2(fixReg),
				FSID: "testfs", CacheBytes: -1, BlockSize: testBlockSize})
			if err != nil {
				t.Fatal(err)
			}
			defer cached.Close()
			for who, s := range map[string]*Session{"uncached": alice, "cached": cached} {
				if got, err := s.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
					t.Errorf("%s read: %q, %v", who, got, err)
				}
				if err := s.Append("/f", []byte("more")); !errors.Is(err, types.ErrTampered) {
					t.Errorf("%s append: %v", who, err)
				}
			}
			if _, ok := cached.cache.Get(ckBlock + tailKey); ok {
				t.Error("the substituted tail is in the cache")
			}
			after, err := store.List(wire.NSData, "f/")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Error("a refused append wrote to the store")
			}

			mustDo(t, store.Put(wire.NSData, tailKey, honest))
			for who, s := range map[string]*Session{"uncached": alice, "cached": cached} {
				if got, err := s.ReadFile("/f"); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s read after the SSP heals: %d bytes, %v", who, len(got), err)
				}
			}
			mustDo(t, cached.Append("/f", []byte("more")))
			alice.Refresh()
			if got, err := alice.ReadFile("/f"); err != nil || !bytes.Equal(got, append(want, "more"...)) {
				t.Errorf("read after an honest append: %d bytes, %v", len(got), err)
			}
		})
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, store ssp.BlobStore, key string) []byte {
	t.Helper()
	blob, err := store.Get(wire.NSData, key)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), blob...)
}

// TestUnauthorizedWriteDetected: a reader (or the SSP) re-encrypts a block
// with the DEK it knows but cannot produce a valid DSK signature.
func TestUnauthorizedWriteDetected(t *testing.T) {
	fixture(t)
	store := ssp.NewMemStore()
	eng := layout.NewScheme2(fixReg)
	err := migrate.Bootstrap(migrate.Options{Store: store, Registry: fixReg, Layout: eng,
		FSID: "testfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755})
	if err != nil {
		t.Fatal(err)
	}
	mount := func(id types.UserID) *Session {
		s, err := Mount(Config{Store: store, User: fixUser[id], Registry: fixReg, Layout: eng,
			FSID: "testfs", CacheBytes: 0, BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	alice := mount("alice")
	if err := alice.WriteFile("/readonly-for-carol", []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	// carol holds the DEK (she can read) — the attack the paper's
	// signing/verification design exists to stop (§II-B).
	carol := mount("carol")
	if err := carol.WriteFile("/readonly-for-carol", []byte("forged"), 0); !errors.Is(err, types.ErrPermission) {
		t.Fatalf("carol write: %v", err)
	}
	// Simulate carol bypassing the client and writing a DEK-encrypted
	// forged blob straight to the SSP: she has no DSK, so she signs with
	// a key she made up. Readers must reject it.
	_, cm, err := carol.resolve("/readonly-for-carol")
	if err != nil {
		t.Fatal(err)
	}
	tmp := *cm
	tmp.Keys.DSK = newObjectKeys().DSK // a signing key of her own, not the file's DSK
	var forged write
	if err := carol.sealFileData(&forged, &tmp, []byte("forged!!"), 64, 1); err != nil {
		t.Fatal(err)
	}
	if err := store.BatchPut(forged.kvs); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadFile("/readonly-for-carol"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("alice accepted a forged write: %v", err)
	}
}

// TestRollbackVisibility documents what a pure rollback (replay of stale
// but once-valid state) does. A whole-file rollback — the manifest and
// every block of an older version — is NOT detected: nothing orders two
// manifests of one generation, and the paper defers fork-consistency to a
// SUNDR integration (§VI; ROADMAP items 7 and 12). But the content read is
// always exactly one whole version the writer once wrote: the manifest
// names every block by its digest, so blocks of two versions never
// combine (TestStaleVersionUnderNewerManifest).
func TestRollbackVisibility(t *testing.T) {
	for _, size := range []int{9, 2 * testBlockSize, 3*testBlockSize + 10} {
		t.Run(fmt.Sprintf("%d bytes", size), func(t *testing.T) {
			fs, alice := tamperWorld(t)
			v1, v2 := pattern(size, 1), pattern(size, 2)
			mustDo(t, alice.WriteFile("/f", v1, 0o644))
			mustDo(t, alice.WriteFile("/f", v2, 0))
			fs.AddRule(ssp.FaultRule{Mode: ssp.FaultRollback, NS: wire.NSData, KeyPart: meta.FilePrefix(inodeOf(t, alice, "/f"))})
			got, err := alice.ReadFile("/f")
			if err != nil && !errors.Is(err, types.ErrTampered) {
				t.Fatalf("rollback read: %v", err)
			}
			if err == nil && !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
				t.Errorf("rollback yielded %d bytes that are neither version", len(got))
			}
		})
	}
}

// TestMixedVersionBlockDetected: 128 bytes in two 64-byte blocks,
// overwritten all-A → all-B in place (one generation, so the same keys
// and AADs), and the SSP rolls back block 1 alone. Each blob is one the
// writer sealed for exactly that (inode, generation, index) and length;
// only the manifest's digests tell the versions apart. The read must fail
// rather than return 64 × B + 64 × A, a file that never existed.
func TestMixedVersionBlockDetected(t *testing.T) {
	fs, alice := tamperWorld(t)
	mustDo(t, alice.WriteFile("/f", bytes.Repeat([]byte("A"), 128), 0o644))
	mustDo(t, alice.WriteFile("/f", bytes.Repeat([]byte("B"), 128), 0))
	_, m, err := alice.resolve("/f")
	mustDo(t, err)
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultRollback, NS: wire.NSData, KeyPart: meta.BlockKey(m.Attr.Inode, m.Attr.DataGen, 1)})
	if got, err := alice.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
		t.Fatalf("read a mix of versions: %q, %v", got, err)
	}
}

// TestStaleVersionUnderNewerManifest: for files of 2 blocks (with and
// without a tail), 16 and 17 blocks, the SSP serves the block or tail of
// version v at one index — every index in turn — under the manifest of
// version v+1. Both versions have the same size, so the stale blob has
// the key, AAD and length of the one it replaces and verified on its own
// before. ReadFile refuses it. Append refuses it where it reads it (the
// tail) and then writes nothing. Where it does not read it (a full
// block), Append succeeds, and the next read still fails: the new
// manifest carries v+1's digest forward, so the stale block is not
// laundered into the file. On read, v's manifest over v+1's blocks is
// refused too.
func TestStaleVersionUnderNewerManifest(t *testing.T) {
	for _, size := range []int{2 * testBlockSize, testBlockSize + 10, 16 * testBlockSize, 16*testBlockSize + 10} {
		geometry := meta.NewManifest(uint64(size), testBlockSize, 0)
		for idx := -1; idx < int(geometry.NBlocks); idx++ { // -1: the manifest
			for _, op := range []string{"read", "append"} {
				if idx < 0 && op == "append" {
					continue // a stale manifest alone is a whole-file rollback
				}
				t.Run(fmt.Sprintf("%d bytes/index %d/%s", size, idx, op), func(t *testing.T) {
					fs, alice := tamperWorld(t)
					store := fs.Inner
					mustDo(t, alice.WriteFile("/f", pattern(size, 1), 0o644))
					_, m, err := alice.resolve("/f")
					mustDo(t, err)
					key := meta.ManifestKey(m.Attr.Inode)
					if idx >= 0 {
						key = geometry.DataKey(m.Attr.Inode, m.Attr.DataGen, uint32(idx))
					}
					stale := mustGet(t, store, key)
					mustDo(t, alice.WriteFile("/f", pattern(size, 2), 0))
					mustDo(t, store.Put(wire.NSData, key, stale))

					if op == "read" {
						if got, err := alice.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
							t.Fatalf("read under the newer manifest: %d bytes, %v", len(got), err)
						}
						return
					}
					before, err := store.List(wire.NSData, "f/")
					mustDo(t, err)
					err = alice.Append("/f", []byte("more"))
					if key == meta.TailKey(m.Attr.Inode) {
						if !errors.Is(err, types.ErrTampered) {
							t.Fatalf("append to a stale tail: %v", err)
						}
						after, err := store.List(wire.NSData, "f/")
						mustDo(t, err)
						if !reflect.DeepEqual(before, after) {
							t.Error("a refused append wrote to the store")
						}
						return
					}
					if err != nil {
						t.Fatalf("append past a stale block it does not read: %v", err)
					}
					if got, err := alice.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
						t.Fatalf("the append laundered a stale block: read %d bytes, %v", len(got), err)
					}
				})
			}
		}
	}
}

// TestDroppedBlobSurfacesError: the SSP hiding blobs must surface as an
// integrity error on data reads, not as silently-empty content.
func TestDroppedBlobSurfacesError(t *testing.T) {
	fs, alice := tamperWorld(t)
	if err := alice.WriteFile("/f", []byte("some content"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultDrop, NS: wire.NSData, KeyPart: "f/"})
	if _, err := alice.ReadFile("/f"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("read with dropped blocks: %v", err)
	}
}

// strayListStore answers every data listing with one more key, outside
// the prefix it was asked for: an SSP, or one shard behind a router,
// steering the deletes a client builds from the listing.
type strayListStore struct{ ssp.BlobStore }

func (s strayListStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	out, err := s.BlobStore.List(ns, prefix)
	if ns == wire.NSData {
		out = append(out, wire.KV{NS: ns, Key: "f/999/m"})
	}
	return out, err
}

// TestStrayListedKeyIsTampering: the two operations that delete by a
// listing — a remove by a user who cannot read the file's manifest, and
// a re-keying chmod dropping the old generation's blocks — refuse a
// listed key outside the asked prefix before they delete anything.
func TestStrayListedKeyIsTampering(t *testing.T) {
	fixture(t)
	mem := ssp.NewMemStore()
	w := newWorld(t, layout.NewScheme2(fixReg), mem)
	alice := w.as("alice")
	if err := alice.Mkdir("/shared", perm(t, "777")); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("secret"), 40)
	for _, p := range []string{"/shared/private", "/open"} {
		if err := alice.WriteFile(p, content, perm(t, "600")); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.Chmod("/open", perm(t, "644")); err != nil {
		t.Fatal(err)
	}
	mount := func(id types.UserID) *Session {
		s, err := Mount(Config{Store: strayListStore{mem}, User: fixUser[id], Registry: fixReg, Layout: w.eng,
			FSID: "testfs", CacheBytes: -1, BlockSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	// bob may unlink in /shared but holds no DEK of alice's 600 file, so
	// the remove lists the file's blobs (deleteDataKVs).
	if err := mount("bob").Remove("/shared/private"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("remove over a stray listing: %v", err)
	}
	// Revoking read re-keys the file and lists the old generation
	// (rekeyFile).
	if err := mount("alice").Chmod("/open", perm(t, "600")); !errors.Is(err, types.ErrTampered) {
		t.Errorf("re-keying chmod over a stray listing: %v", err)
	}
	fresh := w.mountFresh("alice", -1)
	defer fresh.Close()
	for _, p := range []string{"/shared/private", "/open"} {
		if got, err := fresh.ReadFile(p); err != nil || !bytes.Equal(got, content) {
			t.Errorf("%s after the refused operation: %d bytes, %v", p, len(got), err)
		}
	}
}

// TestMountRefusesUnvouchedGroupKey: the SSP chooses which wrapped group
// keys a member's listing holds, and RSA-OAEP authenticates nothing, so a
// malicious SSP can seal a key of its own to alice's public key, list it
// as one of her groups and store a superblock sealed to it. Hiding her
// own and her group's superblocks leaves the mount only the forged root;
// the mount must refuse the unvouched key instead.
func TestMountRefusesUnvouchedGroupKey(t *testing.T) {
	fixture(t)
	evil, err := keys.NewGroup("evil")
	if err != nil {
		t.Fatal(err)
	}
	_, mvk := sharocrypto.NewSigningPair()
	forgedRoot := &meta.Superblock{FSID: "testfs", RootInode: 4242, RootVariant: "c/forged",
		RootMEK: sharocrypto.NewSymKey(), RootMVK: mvk}
	// "evil" is in no registry group; "eng" is alice's, but the key is not
	// the one the registry holds for it.
	for _, gid := range []types.GroupID{"evil", "eng"} {
		t.Run(string(gid), func(t *testing.T) {
			store := ssp.NewMemStore()
			eng := layout.NewScheme2(fixReg)
			if err := migrate.Bootstrap(migrate.Options{Store: store, Registry: fixReg, Layout: eng,
				FSID: "testfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755}); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"u:alice", "g:eng"} {
				if err := store.Delete(wire.NSSuper, meta.SuperKey("testfs", p)); err != nil {
					t.Fatal(err)
				}
			}
			wrapped, err := fixUser["alice"].Public().Seal(evil.Priv.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			sb, err := meta.SealSuperblock(forgedRoot, evil.Priv.Public())
			if err != nil {
				t.Fatal(err)
			}
			if err := store.BatchPut([]wire.KV{
				{NS: wire.NSGroupKey, Key: "u/alice/g/" + string(gid), Val: wrapped},
				{NS: wire.NSSuper, Key: meta.SuperKey("testfs", "g:"+string(gid)), Val: sb},
			}); err != nil {
				t.Fatal(err)
			}
			s, err := Mount(Config{Store: store, User: fixUser["alice"], Registry: fixReg, Layout: eng,
				FSID: "testfs", CacheBytes: -1, BlockSize: 64})
			if err == nil {
				s.Close()
				t.Fatalf("mount accepted a root at inode %d, variant %q", s.root.ino, s.root.variant)
			}
			if !errors.Is(err, types.ErrTampered) {
				t.Fatalf("mount over a forged group key: %v, want ErrTampered", err)
			}
		})
	}
}
