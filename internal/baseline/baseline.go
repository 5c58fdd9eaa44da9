// Package baseline implements the four comparison systems of the paper's
// evaluation (§V) as sealing modes of the Sharoes client:
//
//	NO-ENC-MD-D — no encryption at all: the floor for networking and
//	              implementation overheads of a wide-area filesystem.
//	NO-ENC-MD   — plaintext metadata, symmetric-key data encryption.
//	PUBLIC      — metadata objects encrypted entirely with the public
//	              keys of authorized users (SiRiUS/SNAD/Farsite style);
//	              every stat pays per-chunk private-key decryptions.
//	PUB-OPT     — metadata encrypted with a symmetric key that is itself
//	              public-key-wrapped per user; one private-key operation
//	              per metadata read.
//
// A mode is a layout.Engine (New): it rides in client.Config.Layout, and
// migrate.Bootstrap builds its filesystem, as Sharoes's two schemes do.
// It decides which copies of an object exist — one shared copy, or one
// per user under PUBLIC — and how each blob is sealed, opened and keyed.
// Everything else is the one client's: the walk, the batched fetches, the
// sibling-batched getattr, the tail key and the commit point. So a
// measured difference between two of the five systems is the metadata
// protection alone, as in the paper's comparison (DESIGN.md §7.21).
//
// The client reads a filled key slot as a capability. A baseline has no
// CAPs: every reader of an object's metadata holds every key of it, and
// permissions are the client's policy checks alone. None of the modes
// signs anything, and the NO-ENC modes authenticate nothing: the openers
// hand the client bytes no signature vouches for, the design these
// baselines reproduce.
package baseline

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"github.com/sharoes/sharoes/internal/binenc"
	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// Mode selects the comparison system.
type Mode uint8

// Baseline modes, in the order the paper's figures list them.
const (
	NoEncMDD Mode = iota + 1 // NO-ENC-MD-D
	NoEncMD                  // NO-ENC-MD
	Public                   // PUBLIC
	PubOpt                   // PUB-OPT
)

// String implements fmt.Stringer using the paper's labels.
func (m Mode) String() string {
	switch m {
	case NoEncMDD:
		return "NO-ENC-MD-D"
	case NoEncMD:
		return "NO-ENC-MD"
	case Public:
		return "PUBLIC"
	case PubOpt:
		return "PUB-OPT"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// EncryptsData reports whether the mode encrypts file and directory data.
func (m Mode) EncryptsData() bool { return m != NoEncMDD }

// EncryptsMetadata reports whether the mode protects metadata.
func (m Mode) EncryptsMetadata() bool { return m == Public || m == PubOpt }

// metaPadSize pads serialized metadata to a representative on-disk inode
// size (an ext2 inode is 128 B; the SiRiUS-style md-files the PUBLIC
// baseline models carry key blocks and signatures and run several hundred
// bytes). A fixed size keeps the four modes' metadata the same size
// before sealing, and it determines how many RSA chunks the PUBLIC mode
// pays per metadata operation: ⌈512/190⌉ = 3.
const metaPadSize = 512

// wrappedLen is the size of one RSA-wrapped PUB-OPT metadata key.
const wrappedLen = sharocrypto.RSABits / 8

// shared is the variant of the one copy the shared modes keep.
const shared = "b"

// Engine is one mode over the enterprise registry, as a layout.Engine.
type Engine struct {
	mode Mode
	reg  *keys.Registry
}

var _ layout.Engine = (*Engine)(nil)

// New returns the engine of mode over reg.
func New(mode Mode, reg *keys.Registry) *Engine { return &Engine{mode: mode, reg: reg} }

// Name implements layout.Engine with the paper's label.
func (e *Engine) Name() string { return e.mode.String() }

// FixedVariants implements layout.Engine: NO-ENC-MD-D, NO-ENC-MD and
// PUB-OPT keep one shared copy of everything; PUBLIC keeps one per user,
// as Scheme-1 does ("every metadata object is separately encrypted with
// the public keys of all users", paper §III-D1).
func (e *Engine) FixedVariants() []string {
	if e.mode != Public {
		return []string{shared}
	}
	users := e.reg.Users()
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = "u/" + string(u)
	}
	return out
}

// Variants implements layout.Engine. Every copy carries the owner's keys.
func (e *Engine) Variants(attr meta.Attr) []layout.Variant {
	owner := cap.IDFor(attr.Kind, attr.Perm, types.ClassOwner)
	ids := e.FixedVariants()
	out := make([]layout.Variant, len(ids))
	for i, id := range ids {
		out[i] = layout.Variant{ID: id, Cap: owner}
	}
	return out
}

// UserVariant implements layout.Engine.
func (e *Engine) UserVariant(user types.UserID, attr meta.Attr) layout.Variant {
	id := shared
	if e.mode == Public {
		id = "u/" + string(user)
	}
	return layout.Variant{ID: id, Cap: cap.IDFor(attr.Kind, attr.Perm, types.ClassOwner)}
}

// Row implements layout.Engine: the plain two-column row, leading to the
// child's copy of the reader's own variant. Rows carry no keys and never
// split.
func (e *Engine) Row(_ meta.Attr, pv layout.Variant, child *meta.Metadata) (meta.DirEntry, []wire.KV, error) {
	return meta.DirEntry{Inode: child.Attr.Inode, Variant: pv.ID}, nil, nil
}

// NewKeys implements layout.Engine: every slot filled from fresh random
// bytes, with no key generation. The signing slots never sign.
func (e *Engine) NewKeys(layout.Stopwatch) meta.KeySet {
	k := meta.KeySet{DEK: sharocrypto.NewSymKey(), DataSeed: sharocrypto.NewSymKey(), MetaSeed: sharocrypto.NewSymKey()}
	var err error
	if k.DSK, err = sharocrypto.SignKeyFromBytes(seed()); err == nil {
		if k.MSK, err = sharocrypto.SignKeyFromBytes(seed()); err == nil {
			k.DVK, err = sharocrypto.VerifyKeyFromBytes(seed())
		}
	}
	if err != nil {
		panic("baseline: key slot: " + err.Error())
	}
	return k
}

// seed returns 32 fresh random bytes.
func seed() []byte {
	b := make([]byte, 32)
	if _, err := rand.Read(b); err != nil {
		panic("baseline: entropy unavailable: " + err.Error())
	}
	return b
}

// SealMeta implements layout.Engine: each copy is the metadata with every
// key, padded to metaPadSize, then stored as it is (NO-ENC modes),
// chunk-sealed to its user's public key (PUBLIC), or sealed under a fresh
// key wrapped to every user (PUB-OPT, sealPubOpt).
func (e *Engine) SealMeta(sw layout.Stopwatch, full *meta.Metadata, vs []layout.Variant) ([]wire.KV, error) {
	if e.mode.EncryptsMetadata() {
		defer sw.Start()()
	}
	out := make([]wire.KV, 0, len(vs))
	for _, v := range vs {
		plain := e.MetaCopy(full, v).Encode()
		if n := metaPadSize - len(plain); n > 0 {
			plain = append(plain, make([]byte, n)...)
		}
		var blob []byte
		var err error
		switch e.mode {
		case Public:
			var pub sharocrypto.PublicKey
			if pub, err = e.reg.UserKey(types.UserID(v.ID[len("u/"):])); err == nil {
				blob, err = pub.SealChunked(plain)
			}
		case PubOpt:
			blob, err = e.sealPubOpt(full.Attr.Inode, v.ID, plain)
		default:
			blob = plain
		}
		if err != nil {
			return nil, fmt.Errorf("baseline: seal metadata of %d: %w", full.Attr.Inode, err)
		}
		out = append(out, wire.KV{NS: wire.NSMeta, Key: meta.MetaKey(full.Attr.Inode, v.ID), Val: blob})
	}
	return out, nil
}

// MetaCopy implements layout.Engine: every key, but in the modes that
// encrypt data a directory's DEK slot holds this copy's table key.
func (e *Engine) MetaCopy(full *meta.Metadata, v layout.Variant) *meta.Metadata {
	if e.mode.EncryptsData() {
		return cap.Filter(full, v.Cap, v.ID)
	}
	return &meta.Metadata{Attr: full.Attr, Keys: full.Keys}
}

// sealPubOpt seals a PUB-OPT copy the way a SiRiUS md-file does: the body
// under a fresh metadata key bound to (inode, variant), after that key
// wrapped to every registered user, one RSA chunk each, in registry order:
// uvarint(n) ‖ n wrapped keys ‖ body.
func (e *Engine) sealPubOpt(ino types.Inode, variant string, plain []byte) ([]byte, error) {
	mk := sharocrypto.NewSymKey()
	users := e.reg.Users()
	var w binenc.Writer
	w.Uvarint(uint64(len(users)))
	for _, u := range users {
		pub, err := e.reg.UserKey(u)
		if err != nil {
			return nil, err
		}
		wrapped, err := pub.SealChunked(mk.Marshal())
		if err != nil {
			return nil, err
		}
		w.Raw(wrapped)
	}
	w.Raw(mk.Seal(plain, meta.MetaAAD(ino, variant)))
	return w.Bytes(), nil
}

var errNoSlot = errors.New("baseline: no wrapped key for this user")

// OpenMeta implements layout.Engine: the private-key operations the paper
// measures — one per RSA chunk of the whole object under PUBLIC, one to
// unwrap the metadata key under PUB-OPT — and none in the NO-ENC modes.
func (e *Engine) OpenMeta(sw layout.Stopwatch, u *keys.User, ino types.Inode, variant string, _ sharocrypto.SymKey, _ sharocrypto.VerifyKey, blob []byte) (*meta.Metadata, error) {
	plain := blob
	if e.mode.EncryptsMetadata() {
		stop := sw.Start()
		var err error
		if e.mode == Public {
			plain, err = u.Priv.OpenChunked(blob)
		} else {
			plain, err = e.openPubOpt(u, ino, variant, blob)
		}
		stop()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", types.ErrTampered, err)
		}
	}
	return meta.Decode(plain)
}

// openPubOpt unwraps u's metadata key from its slot and opens the body.
func (e *Engine) openPubOpt(u *keys.User, ino types.Inode, variant string, blob []byte) ([]byte, error) {
	r := binenc.NewReader(blob)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	slot := slices.Index(e.reg.Users(), u.ID)
	if slot < 0 || uint64(slot) >= n || n > uint64(r.Remaining()/wrappedLen) {
		return nil, errNoSlot
	}
	if _, err := r.Raw(slot * wrappedLen); err != nil {
		return nil, err
	}
	wrapped, err := r.Raw(wrappedLen)
	if err != nil {
		return nil, err
	}
	if _, err := r.Raw((int(n) - slot - 1) * wrappedLen); err != nil {
		return nil, err
	}
	body, err := r.Raw(r.Remaining())
	if err != nil {
		return nil, err
	}
	raw, err := u.Priv.OpenChunked(wrapped)
	if err != nil {
		return nil, err
	}
	mk, err := sharocrypto.SymKeyFromBytes(raw)
	if err != nil {
		return nil, err
	}
	return mk.Open(body, meta.MetaAAD(ino, variant))
}

// seal encrypts a data blob — a table view, a block, a manifest — under
// key, bound to aad: AES-GCM in every mode but NO-ENC-MD-D, which stores
// a copy of it as it is.
func (e *Engine) seal(key sharocrypto.SymKey, aad, plain []byte) []byte {
	if !e.mode.EncryptsData() {
		return append([]byte(nil), plain...)
	}
	return key.Seal(plain, aad)
}

// open reverses seal, appending the plaintext to dst.
func (e *Engine) open(sw layout.Stopwatch, dst []byte, key sharocrypto.SymKey, aad, blob []byte) ([]byte, error) {
	if !e.mode.EncryptsData() {
		return append(dst, blob...), nil
	}
	defer sw.Start()()
	pt, err := key.AppendOpen(dst, blob, aad)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", types.ErrTampered, err)
	}
	return pt, nil
}

// SealViews implements layout.Engine: each view is the plain full table,
// sealed under its copy's table key.
func (e *Engine) SealViews(sw layout.Stopwatch, dirFull *meta.Metadata, views []cap.ViewSpec) ([][]byte, error) {
	if e.mode.EncryptsData() {
		defer sw.Start()()
	}
	out := make([][]byte, len(views))
	for i, v := range views {
		var key sharocrypto.SymKey
		if e.mode.EncryptsData() {
			key = cap.TableKey(dirFull, v.Variant)
		}
		out[i] = e.seal(key, meta.TableAAD(dirFull.Attr.Inode, v.Variant), v.Table.Encode())
	}
	return out, nil
}

// OpenView implements layout.Engine: every view is a full one.
func (e *Engine) OpenView(sw layout.Stopwatch, variant string, tkey sharocrypto.SymKey, _ sharocrypto.VerifyKey, ino types.Inode, blob []byte) (*cap.View, error) {
	pt, err := e.open(sw, nil, tkey, meta.TableAAD(ino, variant), blob)
	if err != nil {
		return nil, err
	}
	t, err := meta.DecodeTable(pt)
	if err != nil {
		return nil, err
	}
	return cap.NewFullView(t), nil
}

// SealFile implements layout.Engine: the client's block layout, each
// block and the manifest sealed like any data blob. The manifest records
// no digests: nothing signs it.
func (e *Engine) SealFile(sw layout.Stopwatch, m *meta.Metadata, man *meta.Manifest, first uint32, data []byte) []wire.KV {
	if e.mode.EncryptsData() {
		defer sw.Start()()
	}
	return layout.SealFile(m, man, first, data,
		func(aad, plain []byte) ([]byte, [sha256.Size]byte) {
			return e.seal(m.Keys.DEK, aad, plain), [sha256.Size]byte{}
		},
		func(aad, plain []byte) []byte { return e.seal(m.Keys.DEK, aad, plain) })
}

// OpenManifest implements layout.Engine.
func (e *Engine) OpenManifest(sw layout.Stopwatch, ino types.Inode, m *meta.Metadata, blob []byte) (*meta.Manifest, error) {
	pt, err := e.open(sw, nil, m.Keys.DEK, meta.ManifestAAD(ino, m.Attr.DataGen), blob)
	if err != nil {
		return nil, err
	}
	return meta.DecodeManifest(pt)
}

// OpenBlock implements layout.Engine; no manifest names a block's digest.
func (e *Engine) OpenBlock(sw layout.Stopwatch, dst []byte, key sharocrypto.SymKey, aad, blob []byte, _ [sha256.Size]byte) ([]byte, error) {
	return e.open(sw, dst, key, aad, blob)
}

// SealSuperblock implements layout.Engine: stored as it is, without its
// keys. A baseline superblock names the root's inode and the user's copy
// of it; opening the root needs no key from it.
func (e *Engine) SealSuperblock(sb *meta.Superblock, _ sharocrypto.PublicKey) ([]byte, error) {
	return (&meta.Superblock{FSID: sb.FSID, RootInode: sb.RootInode, RootVariant: sb.RootVariant}).Encode(), nil
}

// OpenSuperblock implements layout.Engine.
func (e *Engine) OpenSuperblock(_ layout.Stopwatch, _ sharocrypto.PrivateKey, blob []byte) (*meta.Superblock, error) {
	return meta.DecodeSuperblock(blob)
}
