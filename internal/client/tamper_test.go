package client

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/migrate"
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
	forged, err := carol.sealFileData(&tmp, []byte("forged!!"), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BatchPut(forged); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ReadFile("/readonly-for-carol"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("alice accepted a forged write: %v", err)
	}
}

// TestRollbackVisibility documents what a pure rollback (replay of stale
// but once-valid state) does: it is NOT detected — the paper explicitly
// defers fork-consistency to a SUNDR integration (§VI) — but it can only
// yield stale authentic content, never forged content.
func TestRollbackVisibility(t *testing.T) {
	fs, alice := tamperWorld(t)
	if err := alice.WriteFile("/f", []byte("version-1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := alice.WriteFile("/f", []byte("version-2"), 0); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultRollback, NS: wire.NSData})
	got, err := alice.ReadFile("/f")
	if err != nil {
		// Acceptable too: some rollbacks break cross-blob consistency
		// and are detected.
		return
	}
	if string(got) != "version-1" && string(got) != "version-2" {
		t.Errorf("rollback yielded forged content %q", got)
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
