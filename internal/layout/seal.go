package layout

import (
	"crypto/sha256"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// Stopwatch times one CRYPTO section: calling it starts the section and
// the func it returns ends it. The client hands one to every seal and
// open of a Sealer, and a system times only the cryptography it does, so
// one that does none records none. A nil Stopwatch times nothing.
type Stopwatch func() func()

// Start starts sw's section and returns its end.
func (sw Stopwatch) Start() func() {
	if sw == nil {
		return func() {}
	}
	return sw()
}

// Sealer is how a system seals, opens and keys each blob it keeps at the
// SSP: metadata copies, directory-table views, file blocks and manifest,
// and the superblock a mount starts from. Sharoes signs all of them
// (both schemes embed signed); the comparison baselines of the paper's
// evaluation are Sealers too (internal/baseline), so that the one client
// runs all five systems and they differ only here.
type Sealer interface {
	// NewKeys mints the key set of a new object.
	NewKeys(sw Stopwatch) meta.KeySet
	// SealMeta seals the copies vs of an object's metadata, from the
	// complete key set full carries.
	SealMeta(sw Stopwatch, full *meta.Metadata, vs []Variant) ([]wire.KV, error)
	// MetaCopy is the plaintext SealMeta seals as the copy v: what
	// OpenMeta returns for it.
	MetaCopy(full *meta.Metadata, v Variant) *meta.Metadata
	// OpenMeta opens the copy of ino's metadata stored for variant, with
	// the keys its directory row or superblock gave (mek, mvk) or with
	// user u's private key.
	OpenMeta(sw Stopwatch, u *keys.User, ino types.Inode, variant string, mek sharocrypto.SymKey, mvk sharocrypto.VerifyKey, blob []byte) (*meta.Metadata, error)
	// SealViews seals the views one directory update writes, in views'
	// order; dirFull carries the directory's writer keys.
	SealViews(sw Stopwatch, dirFull *meta.Metadata, views []cap.ViewSpec) ([][]byte, error)
	// OpenView opens variant's view of directory ino's table under table
	// key tkey (and the directory's DVK).
	OpenView(sw Stopwatch, variant string, tkey sharocrypto.SymKey, dvk sharocrypto.VerifyKey, ino types.Inode, blob []byte) (*cap.View, error)
	// SealFile seals data as the blocks of file m from block first on,
	// then man itself, as SealFileKVs lays them out.
	SealFile(sw Stopwatch, m *meta.Metadata, man *meta.Manifest, first uint32, data []byte) []wire.KV
	// OpenManifest opens file ino's manifest under m's data keys.
	OpenManifest(sw Stopwatch, ino types.Inode, m *meta.Metadata, blob []byte) (*meta.Manifest, error)
	// OpenBlock opens one block under key and aad and appends its
	// plaintext to dst, which does not overlap blob; want is the digest
	// the manifest names for it. A reader that gives dst room for the
	// block gets it opened in place.
	OpenBlock(sw Stopwatch, dst []byte, key sharocrypto.SymKey, aad, blob []byte, want [sha256.Size]byte) ([]byte, error)
	// SealSuperblock seals a superblock to one principal's public key.
	SealSuperblock(sb *meta.Superblock, pub sharocrypto.PublicKey) ([]byte, error)
	// OpenSuperblock opens a superblock with a principal's private key.
	OpenSuperblock(sw Stopwatch, priv sharocrypto.PrivateKey, blob []byte) (*meta.Superblock, error)
}

// Sealed is a blob as the SSP returned it. Nothing has authenticated its
// bytes, and nothing outside this package can read them: the openers
// below hand them to a Sealer opener or to meta.OpenSplitPointer, and
// what those return is what the client may trust. So a Sealed value can
// ride in any field or cache entry without being read unopened. The
// Sealer interface itself takes []byte: an implementation sees the bytes
// only when one of these openers calls it.
type Sealed struct{ b []byte }

// Len is the blob's size in bytes, for cache accounting.
func (s Sealed) Len() int { return len(s.b) }

// Reply is one blob of a batch read or a listing.
type Reply struct {
	NS  wire.NS
	Key string
	Val Sealed
}

// Get reads the blob at (ns, key).
func Get(st ssp.BlobStore, ns wire.NS, key string) (Sealed, error) {
	b, err := st.Get(ns, key)
	return Sealed{b}, err
}

// BatchGet reads the blobs want names in one request.
func BatchGet(st ssp.BlobStore, want []wire.KV) ([]Reply, error) {
	items, err := st.BatchGet(want)
	return replies(items), err
}

// List lists ns under prefix (ssp.ListUnder: a key outside prefix is
// refused as tampering).
func List(st ssp.BlobStore, ns wire.NS, prefix string) ([]Reply, error) {
	items, err := ssp.ListUnder(st, ns, prefix)
	return replies(items), err
}

func replies(items []wire.KV) []Reply {
	out := make([]Reply, len(items))
	for i, it := range items {
		out[i] = Reply{NS: it.NS, Key: it.Key, Val: Sealed{it.Val}}
	}
	return out
}

// OpenMeta opens blob with sl.OpenMeta.
func OpenMeta(sl Sealer, sw Stopwatch, u *keys.User, ino types.Inode, variant string, mek sharocrypto.SymKey, mvk sharocrypto.VerifyKey, blob Sealed) (*meta.Metadata, error) {
	return sl.OpenMeta(sw, u, ino, variant, mek, mvk, blob.b)
}

// OpenView opens blob with sl.OpenView.
func OpenView(sl Sealer, sw Stopwatch, variant string, tkey sharocrypto.SymKey, dvk sharocrypto.VerifyKey, ino types.Inode, blob Sealed) (*cap.View, error) {
	return sl.OpenView(sw, variant, tkey, dvk, ino, blob.b)
}

// OpenManifest opens blob with sl.OpenManifest.
func OpenManifest(sl Sealer, sw Stopwatch, ino types.Inode, m *meta.Metadata, blob Sealed) (*meta.Manifest, error) {
	return sl.OpenManifest(sw, ino, m, blob.b)
}

// OpenBlock opens blob with sl.OpenBlock, appending to dst.
func OpenBlock(sl Sealer, sw Stopwatch, dst []byte, key sharocrypto.SymKey, aad []byte, blob Sealed, want [sha256.Size]byte) ([]byte, error) {
	return sl.OpenBlock(sw, dst, key, aad, blob.b, want)
}

// OpenSuperblock opens blob with sl.OpenSuperblock.
func OpenSuperblock(sl Sealer, sw Stopwatch, priv sharocrypto.PrivateKey, blob Sealed) (*meta.Superblock, error) {
	return sl.OpenSuperblock(sw, priv, blob.b)
}

// OpenSplitPointer opens a split pointer sealed to priv's principal.
func OpenSplitPointer(priv sharocrypto.PrivateKey, blob Sealed) (*meta.SplitPointer, error) {
	return meta.OpenSplitPointer(priv, blob.b)
}

// signed is the Sharoes Sealer, shared by both schemes: every metadata
// copy, view and manifest is encrypted and signed (meta.SealSigned,
// SealGroup), every block is named by its digest in the signed manifest,
// and superblocks are sealed to their principal's public key.
type signed struct{}

// NewKeys implements Sealer: fresh keys in every slot.
func (signed) NewKeys(sw Stopwatch) meta.KeySet {
	defer sw.Start()()
	dsk, dvk := sharocrypto.NewSigningPair()
	msk, _ := sharocrypto.NewSigningPair()
	return meta.KeySet{
		DEK:      sharocrypto.NewSymKey(),
		DataSeed: sharocrypto.NewSymKey(),
		DVK:      dvk,
		DSK:      dsk,
		MSK:      msk,
		MetaSeed: sharocrypto.NewSymKey(),
	}
}

// SealMeta implements Sealer: each copy holds the keys its CAP grants,
// under its own MEK, signed with the object's MSK.
func (signed) SealMeta(sw Stopwatch, full *meta.Metadata, vs []Variant) ([]wire.KV, error) {
	defer sw.Start()()
	out := make([]wire.KV, 0, len(vs))
	for _, v := range vs {
		filtered := cap.Filter(full, v.Cap, v.ID)
		blob := filtered.Seal(v.MEK(full), full.Keys.MSK, meta.MetaAAD(full.Attr.Inode, v.ID))
		out = append(out, wire.KV{NS: wire.NSMeta, Key: meta.MetaKey(full.Attr.Inode, v.ID), Val: blob})
	}
	return out, nil
}

// MetaCopy implements Sealer: the keys v's CAP grants.
func (signed) MetaCopy(full *meta.Metadata, v Variant) *meta.Metadata {
	return cap.Filter(full, v.Cap, v.ID)
}

// OpenMeta implements Sealer.
func (signed) OpenMeta(sw Stopwatch, _ *keys.User, ino types.Inode, variant string, mek sharocrypto.SymKey, mvk sharocrypto.VerifyKey, blob []byte) (*meta.Metadata, error) {
	defer sw.Start()()
	return meta.OpenMetadata(mek, mvk, meta.MetaAAD(ino, variant), blob)
}

// SealViews implements Sealer: one signature over the whole group.
func (signed) SealViews(sw Stopwatch, dirFull *meta.Metadata, views []cap.ViewSpec) ([][]byte, error) {
	defer sw.Start()()
	return cap.SealTableViews(dirFull, views)
}

// OpenView implements Sealer.
func (signed) OpenView(sw Stopwatch, variant string, tkey sharocrypto.SymKey, dvk sharocrypto.VerifyKey, ino types.Inode, blob []byte) (*cap.View, error) {
	defer sw.Start()()
	return cap.OpenView(variant, tkey, dvk, ino, blob)
}

// SealFile implements Sealer.
func (signed) SealFile(sw Stopwatch, m *meta.Metadata, man *meta.Manifest, first uint32, data []byte) []wire.KV {
	defer sw.Start()()
	return SealFileKVs(m, man, first, data)
}

// OpenManifest implements Sealer: the writer's signature under the file's
// DEK/DVK and generation-bound AAD.
func (signed) OpenManifest(sw Stopwatch, ino types.Inode, m *meta.Metadata, blob []byte) (*meta.Manifest, error) {
	defer sw.Start()()
	pt, err := meta.OpenVerified(m.Keys.DEK, m.Keys.DVK, meta.ManifestAAD(ino, m.Attr.DataGen), blob)
	if err != nil {
		return nil, err
	}
	return meta.DecodeManifest(pt)
}

// OpenBlock implements Sealer: the digest the verified manifest names.
func (signed) OpenBlock(sw Stopwatch, dst []byte, key sharocrypto.SymKey, aad, blob []byte, want [sha256.Size]byte) ([]byte, error) {
	defer sw.Start()()
	return meta.OpenBlock(dst, key, aad, blob, want)
}

// SealSuperblock implements Sealer.
func (signed) SealSuperblock(sb *meta.Superblock, pub sharocrypto.PublicKey) ([]byte, error) {
	return meta.SealSuperblock(sb, pub)
}

// OpenSuperblock implements Sealer.
func (signed) OpenSuperblock(sw Stopwatch, priv sharocrypto.PrivateKey, blob []byte) (*meta.Superblock, error) {
	defer sw.Start()()
	return meta.OpenSuperblock(priv, blob)
}
