// Package keyegressgood is a sharoes-vet test fixture: key material is
// always sealed or wrapped before it leaves the client, and key-typed
// values handed to other module packages are their responsibility —
// keyegress must stay silent.
package keyegressgood

import (
	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// GoodKV wraps the key under the recipient's public key first.
func GoodKV(k sharocrypto.SymKey, pub sharocrypto.PublicKey) (wire.KV, error) {
	wrapped, err := pub.SealChunked(k[:])
	if err != nil {
		return wire.KV{}, err
	}
	return wire.KV{NS: wire.NSData, Key: "k", Val: wrapped}, nil
}

// GoodStore seals the payload under a data key before the store write.
func GoodStore(st ssp.BlobStore, dek sharocrypto.SymKey, plain []byte) error {
	return st.Put(wire.NSData, "k", dek.Seal(plain, []byte("ctx")))
}

// GoodSuper stores a key-bearing superblock only in sealed form.
func GoodSuper(st ssp.BlobStore, mek sharocrypto.SymKey, mvk sharocrypto.VerifyKey, pub sharocrypto.PublicKey) error {
	sb := &meta.Superblock{FSID: "fs", RootVariant: "o", RootMEK: mek, RootMVK: mvk}
	sealed, err := meta.SealSuperblock(sb, pub)
	if err != nil {
		return err
	}
	return st.Put(wire.NSSuper, "sb", sealed)
}

// GoodTag stores a name tag: derived FROM a key by a module package, but
// itself public — module-internal calls are trusted with key values.
func GoodTag(st ssp.BlobStore, k sharocrypto.SymKey, name string) error {
	tag := k.NameTag(name)
	return st.Put(wire.NSData, "t", tag[:])
}

// GoodAsyncStore seals under a data key before the background goroutine's
// store write: the async flush path carries only ciphertext.
func GoodAsyncStore(st ssp.BlobStore, dek sharocrypto.SymKey, plain []byte, done chan<- error) {
	sealed := dek.Seal(plain, []byte("ctx"))
	go func() {
		done <- st.Put(wire.NSData, "k", sealed)
	}()
}

// GoodReplicatedStore seals once, then fans the one ciphertext out to
// every replica store from per-replica goroutines — the sharded quorum
// write path carries only sealed bytes on every lane.
func GoodReplicatedStore(replicas []ssp.BlobStore, dek sharocrypto.SymKey, plain []byte, acks chan<- error) {
	sealed := dek.Seal(plain, []byte("ctx"))
	for _, st := range replicas {
		go func(st ssp.BlobStore) {
			acks <- st.Put(wire.NSData, "k", sealed)
		}(st)
	}
}

// GoodBlock stores raw key bytes only as a sealed file block: SealBlock's
// blob is ciphertext, and its digest is a hash of that ciphertext.
func GoodBlock(st ssp.BlobStore, dek, k sharocrypto.SymKey) error {
	blob, _ := meta.SealBlock(dek, []byte("ctx"), k[:])
	return st.Put(wire.NSData, "b", blob)
}

// GoodViewGroup stores a view key's raw bytes only inside a signed group
// of table views: SealGroup's blobs are ciphertext, sibling digests and
// one signature.
func GoodViewGroup(st ssp.BlobStore, dsk sharocrypto.SignKey, tkey, viewKey sharocrypto.SymKey) error {
	blobs := meta.SealGroup(dsk, []meta.GroupMember{
		{Key: tkey, AAD: []byte("table|7|o"), Plain: viewKey[:]},
		{Key: tkey, AAD: []byte("table|7|g"), Plain: []byte("names")},
	})
	return st.Put(wire.NSData, "t/7/o", blobs[0])
}

// GoodTableViews stores a table holding a view key's raw bytes (here as
// a row name) only as sealed views: cap.SealTableViews seals every view
// under one signature.
func GoodTableViews(st ssp.BlobStore, dir *meta.Metadata, viewKey sharocrypto.SymKey) error {
	tbl := &meta.DirTable{Entries: []meta.DirEntry{{Name: string(viewKey[:]), Inode: 8, Variant: "o"}}}
	blobs, err := cap.SealTableViews(dir, []cap.ViewSpec{{Table: tbl, ID: cap.ID{Class: cap.DirReadWriteExec, Owner: true}, Variant: "o"}})
	if err != nil {
		return err
	}
	return st.Put(wire.NSData, "t/7/o", blobs[0])
}
