package meta

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/sharoes/sharoes/internal/binenc"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// ErrVerify reports a signature, digest or decryption failure on a sealed
// blob — evidence of an unauthorized write or SSP tampering.
var ErrVerify = errors.New("meta: sealed object failed verification")

var (
	errEnvelopeShape = errors.New("meta: blob is not one framed field plus one signature")
	errBlockShape    = errors.New("meta: block is not exactly one framed field")
	errBlockDigest   = errors.New("meta: block does not match the manifest's digest")
)

// The domain tags separate the two framed digests from each other and
// from every other use of SHA-256 in the system (content hashes, HMAC row
// keys, fingerprints). Each is a fixed string ending in NUL, and neither
// is a prefix of the other, so no block digest is ever a signed
// envelope's message.
const (
	envelopeDomain = "sharoes/signed-envelope\x00"
	blockDomain    = "sharoes/block-digest\x00"
)

// framedDigest is SHA-256(domain ‖ framed ‖ aad), where framed is a blob's
// own leading bytes — uvarint(len) ‖ nonce‖ciphertext‖tag — exactly as
// stored. The length prefix makes the split between sealed bytes and AAD
// unambiguous, so distinct (sealed, aad) pairs never share a digest
// input. Streamed: nothing is concatenated.
func framedDigest(domain string, framed, aad []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(domain))
	h.Write(framed)
	h.Write(aad)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// --- verified-envelope memo ---------------------------------------------------
//
// The client caches opened objects, so an eviction, a Refresh, a second
// session or a re-read of what the process itself just wrote hands
// OpenVerified bytes it has already accepted. The memo remembers accepted
// envelopes by memoKey, so those repeats skip Ed25519 (DESIGN.md §7.18).
// A hit means these exact framed bytes, under this exact AAD and verify
// key, carried this exact signature when they last passed vk.Verify or
// were signed by the matching SignKey: accepting them again is the same
// decision. The memo is process-wide: every session in one process shares
// one trust domain (DESIGN.md §5).
//
// It is 2^12 sets of four 32-byte keys, 512 KiB, each set newest first; a
// key's first bytes pick its set, and an insert into a full set evicts the
// set's oldest key. Four ways, not one: in a direct-mapped table every key
// that lands on a live entry's slot evicts it, and a test tree of a dozen
// objects lost one that way in about one run of fifty.
const (
	memoSets = 1 << 12
	memoWays = 4
)

var (
	memoMu sync.Mutex
	memo   [memoSets][memoWays][sha256.Size]byte

	// memoHit and memoMiss count lookups, as meta.verify.memo_hit and
	// meta.verify.memo_miss (VerifyMemoCounts).
	memoHit, memoMiss atomic.Int64
)

// memoKey is SHA-256(vk ‖ d ‖ sig), all 32 bytes of it: d is the
// envelope's framedDigest, so the key binds the verify key, every framed
// byte, the AAD and the signature.
func memoKey(vk sharocrypto.VerifyKey, d *[sha256.Size]byte, sig []byte) [sha256.Size]byte {
	var in [sharocrypto.VerifyKeySize + sha256.Size + sharocrypto.SigSize]byte
	b := vk.AppendMarshal(in[:0])
	b = append(b, d[:]...)
	return sha256.Sum256(append(b, sig...))
}

// memoSetOf is the index of k's set.
func memoSetOf(k *[sha256.Size]byte) uint32 { return binary.LittleEndian.Uint32(k[:]) % memoSets }

// memoFind returns k's set and whether k is in it. memoMu held.
func memoFind(k *[sha256.Size]byte) (*[memoWays][sha256.Size]byte, bool) {
	set := &memo[memoSetOf(k)]
	for w := range set {
		if set[w] == *k {
			return set, true
		}
	}
	return set, false
}

// memoHas reports whether k is in the memo, counting the hit or miss.
func memoHas(k *[sha256.Size]byte) bool {
	memoMu.Lock()
	_, hit := memoFind(k)
	memoMu.Unlock()
	if hit {
		memoHit.Add(1)
	} else {
		memoMiss.Add(1)
	}
	return hit
}

// memoAdd records k as the newest key of its set.
func memoAdd(k *[sha256.Size]byte) {
	memoMu.Lock()
	if set, ok := memoFind(k); !ok {
		copy(set[1:], set[:memoWays-1])
		set[0] = *k
	}
	memoMu.Unlock()
}

// VerifyMemoCounts returns the process-wide memo counters
// meta.verify.memo_hit (envelopes accepted without a signature check)
// and meta.verify.memo_miss (envelopes that took one).
func VerifyMemoCounts() (hit, miss int64) { return memoHit.Load(), memoMiss.Load() }

// sealFramed encrypts plaintext under key, binding aad, into one
// exact-capacity buffer laid out uvarint(len(sealed)) ‖ sealed, with
// room for extra trailing bytes.
func sealFramed(key sharocrypto.SymKey, aad, plaintext []byte, extra int) []byte {
	sealedLen := len(plaintext) + sharocrypto.SealOverhead
	var prefix [binary.MaxVarintLen64]byte
	p := binary.PutUvarint(prefix[:], uint64(sealedLen))
	out := make([]byte, 0, p+sealedLen+extra)
	out = append(out, prefix[:p]...)
	return key.AppendSeal(out, plaintext, aad)
}

// SealSigned encrypts plaintext under key, binding aad, then signs a
// digest of the whole sealed form and the aad with sk (framedDigest under
// envelopeDomain).
// This is the envelope for every signed structure at the SSP: metadata
// objects (MEK+MSK), directory tables and manifests (DEK+DSK). File
// blocks are not signed on their own: the manifest names each by its
// digest (SealBlock). The signature is what lets readers — who
// necessarily hold the symmetric key — detect writes by non-writers,
// without trusting the SSP; that is why the digest is a
// collision-resistant hash of all of nonce‖ciphertext‖tag and never the
// GCM tag alone, which anyone holding the key can forge. The paper's
// writers likewise "sign the hash of the content" (§II-B).
//
// Layout: uvarint(len(sealed)) ‖ sealed ‖ sig, built in one
// exact-capacity buffer. The new envelope goes into the verified memo
// under sk's verify key, so the writer reading it back checks nothing.
func SealSigned(key sharocrypto.SymKey, sk sharocrypto.SignKey, aad, plaintext []byte) []byte {
	out := sealFramed(key, aad, plaintext, sharocrypto.SigSize)
	d := framedDigest(envelopeDomain, out, aad)
	out = append(out, sk.Sign(d[:])...)
	k := memoKey(sk.VerifyKey(), &d, out[len(out)-sharocrypto.SigSize:])
	memoAdd(&k)
	return out
}

// OpenVerified reverses SealSigned: verifies the signature with vk, then
// decrypts with key. Either failure — or a blob that is not exactly one
// framed field plus one signature — is reported as ErrVerify wrapped with
// types.ErrTampered so clients surface a uniform integrity error. An
// envelope in the verified memo skips vk.Verify, never the shape check or
// the decryption; one that passes vk.Verify joins the memo.
func OpenVerified(key sharocrypto.SymKey, vk sharocrypto.VerifyKey, aad, blob []byte) ([]byte, error) {
	r := binenc.NewReader(blob)
	sealed, err := r.BytesField()
	if err != nil {
		return nil, tampered(err)
	}
	if r.Remaining() != sharocrypto.SigSize {
		return nil, tampered(errEnvelopeShape)
	}
	framed, sig := blob[:len(blob)-sharocrypto.SigSize], blob[len(blob)-sharocrypto.SigSize:]
	d := framedDigest(envelopeDomain, framed, aad)
	if k := memoKey(vk, &d, sig); !memoHas(&k) {
		if err := vk.Verify(d[:], sig); err != nil {
			return nil, tampered(err)
		}
		memoAdd(&k)
	}
	pt, err := key.Open(sealed, aad)
	if err != nil {
		return nil, tampered(err)
	}
	return pt, nil
}

// SealBlock encrypts one file block under key, binding aad, and returns
// the blob, uvarint(len(sealed)) ‖ nonce‖ciphertext‖tag in one
// exact-capacity buffer, with its digest, SHA-256(blockDomain ‖ blob ‖
// aad). The blob carries no signature: the digest goes into the file's
// manifest (Manifest.Digests), and the manifest's one signature covers
// every block through it.
func SealBlock(key sharocrypto.SymKey, aad, plaintext []byte) ([]byte, [sha256.Size]byte) {
	out := sealFramed(key, aad, plaintext, 0)
	return out, framedDigest(blockDomain, out, aad)
}

// OpenBlock reverses SealBlock against want, the digest a verified
// manifest names for this block. It checks the shape (exactly one framed
// field, nothing after it), then the digest in constant time, then opens
// the AES-GCM seal; any failure is ErrVerify wrapped with
// types.ErrTampered. The digest, not the GCM tag, is what authenticates
// the block: anyone holding the DEK can seal a block that opens, but only
// a writer's signed manifest can name it.
func OpenBlock(key sharocrypto.SymKey, aad, blob []byte, want [sha256.Size]byte) ([]byte, error) {
	r := binenc.NewReader(blob)
	sealed, err := r.BytesField()
	if err != nil {
		return nil, tampered(err)
	}
	if r.Remaining() != 0 {
		return nil, tampered(errBlockShape)
	}
	d := framedDigest(blockDomain, blob, aad)
	if subtle.ConstantTimeCompare(d[:], want[:]) != 1 {
		return nil, tampered(errBlockDigest)
	}
	pt, err := key.Open(sealed, aad)
	if err != nil {
		return nil, tampered(err)
	}
	return pt, nil
}

func tampered(err error) error {
	return fmt.Errorf("%w: %w (%w)", types.ErrTampered, ErrVerify, err)
}

// Seal produces the sealed form of the metadata object for one variant:
// encrypted with that variant's MEK and signed with the object's MSK.
func (m *Metadata) Seal(mek sharocrypto.SymKey, msk sharocrypto.SignKey, aad []byte) []byte {
	return SealSigned(mek, msk, aad, m.Encode())
}

// OpenMetadata opens and verifies a sealed metadata object.
func OpenMetadata(mek sharocrypto.SymKey, mvk sharocrypto.VerifyKey, aad, blob []byte) (*Metadata, error) {
	pt, err := OpenVerified(mek, mvk, aad, blob)
	if err != nil {
		return nil, err
	}
	return Decode(pt)
}

// SealSuperblock seals the superblock to a principal's public key. This is
// the only public-key encryption on the ordinary access path, paid once at
// mount (paper §III-C).
func SealSuperblock(s *Superblock, pub sharocrypto.PublicKey) ([]byte, error) {
	return pub.Seal(s.Encode())
}

// OpenSuperblock opens a sealed superblock with the principal's private key.
func OpenSuperblock(priv sharocrypto.PrivateKey, blob []byte) (*Superblock, error) {
	pt, err := priv.Open(blob)
	if err != nil {
		return nil, tampered(err)
	}
	return DecodeSuperblock(pt)
}

// SealSplitPointer seals a split pointer to a principal's public key.
func SealSplitPointer(p *SplitPointer, pub sharocrypto.PublicKey) ([]byte, error) {
	return pub.Seal(p.Encode())
}

// OpenSplitPointer opens a sealed split pointer.
func OpenSplitPointer(priv sharocrypto.PrivateKey, blob []byte) (*SplitPointer, error) {
	pt, err := priv.Open(blob)
	if err != nil {
		return nil, tampered(err)
	}
	return DecodeSplitPointer(pt)
}

// --- SSP storage keys and AADs ----------------------------------------------
//
// The SSP's hashtable is indexed by inode number plus variant identifier
// (user hash for Scheme-1, CAP ID for Scheme-2), per paper §IV. AAD strings
// bind each blob to its logical location so that a malicious SSP cannot
// satisfy a request for one object with another validly-sealed object.

// MetaKey is the storage key of a metadata variant.
func MetaKey(ino types.Inode, variant string) string {
	return "m/" + strconv.FormatUint(uint64(ino), 10) + "/" + variant
}

// TableKey is the storage key of a directory-table view.
func TableKey(ino types.Inode, variant string) string {
	return "t/" + strconv.FormatUint(uint64(ino), 10) + "/" + variant
}

// BlockKey is the storage key of a file data block.
func BlockKey(ino types.Inode, gen uint64, idx uint32) string {
	return "f/" + strconv.FormatUint(uint64(ino), 10) + "/" + strconv.FormatUint(gen, 10) +
		"/" + strconv.FormatUint(uint64(idx), 10)
}

// BlockPrefix is the storage-key prefix of every block of one generation.
func BlockPrefix(ino types.Inode, gen uint64) string {
	return "f/" + strconv.FormatUint(uint64(ino), 10) + "/" + strconv.FormatUint(gen, 10) + "/"
}

// FilePrefix is the storage-key prefix of every data blob of a file.
func FilePrefix(ino types.Inode) string {
	return "f/" + strconv.FormatUint(uint64(ino), 10) + "/"
}

// ManifestKey is the storage key of a file manifest. Unlike blocks, the
// manifest lives at a generation-independent key so that a stat can fetch
// metadata and manifest in a single round trip; the generation is bound
// into the AAD instead, so a manifest surviving from a previous generation
// fails verification (stale-manifest replay across a re-keying is
// detected).
func ManifestKey(ino types.Inode) string {
	return "f/" + strconv.FormatUint(uint64(ino), 10) + "/manifest"
}

// TailKey is the storage key of a file's final partial block. Like the
// manifest's it depends on the inode alone, so a reader can ask for it in
// the round trip that fetches the metadata, before the generation is known;
// generation and block index are bound into the AAD (TailAAD) instead.
func TailKey(ino types.Inode) string {
	return "f/" + strconv.FormatUint(uint64(ino), 10) + "/tail"
}

// SuperKey is the storage key of a principal's sealed superblock.
func SuperKey(fsid, principal string) string { return "sb/" + fsid + "/" + principal }

// SplitKey is the storage key of a principal's split pointer for an inode.
func SplitKey(ino types.Inode, principal string) string {
	return "sp/" + strconv.FormatUint(uint64(ino), 10) + "/" + principal
}

// MetaAAD binds a sealed metadata blob to (inode, variant).
func MetaAAD(ino types.Inode, variant string) []byte {
	return []byte("meta|" + strconv.FormatUint(uint64(ino), 10) + "|" + variant)
}

// TableAAD binds a sealed table view to (inode, variant).
func TableAAD(ino types.Inode, variant string) []byte {
	return []byte("table|" + strconv.FormatUint(uint64(ino), 10) + "|" + variant)
}

// BlockAAD binds a sealed data block to (inode, generation, index).
func BlockAAD(ino types.Inode, gen uint64, idx uint32) []byte {
	return []byte("block|" + strconv.FormatUint(uint64(ino), 10) + "|" +
		strconv.FormatUint(gen, 10) + "|" + strconv.FormatUint(uint64(idx), 10))
}

// ManifestAAD binds a sealed manifest to (inode, generation).
func ManifestAAD(ino types.Inode, gen uint64) []byte {
	return []byte("manifest|" + strconv.FormatUint(uint64(ino), 10) + "|" + strconv.FormatUint(gen, 10))
}

// TailAAD binds a sealed tail block to (inode, generation, index). Its
// label differs from BlockAAD's, so a full block never verifies under the
// tail key nor a tail under a block key, and a tail kept from before the
// file grew past its index, or from an earlier generation, fails too.
func TailAAD(ino types.Inode, gen uint64, idx uint32) []byte {
	return []byte("tail|" + strconv.FormatUint(uint64(ino), 10) + "|" +
		strconv.FormatUint(gen, 10) + "|" + strconv.FormatUint(uint64(idx), 10))
}

// --- file data layout ---------------------------------------------------------
//
// One rule: a file of Size S and block size B is the full blocks [0, S/B)
// under BlockKey(ino, gen, i) plus, iff S mod B != 0, the tail under
// TailKey(ino) with TailAAD(ino, gen, S/B). The methods below are that
// rule; writers, readers and deleters all go through them.

// FullBlocks is the number of whole blocks, stored under BlockKey.
func (m *Manifest) FullBlocks() uint32 { return uint32(m.Size / uint64(m.BlockSize)) }

// TailLen is the length of the final partial block, stored under TailKey;
// 0 when the size is a multiple of the block size and there is none.
func (m *Manifest) TailLen() int { return int(m.Size % uint64(m.BlockSize)) }

// DataKey is the storage key of block idx < NBlocks.
func (m *Manifest) DataKey(ino types.Inode, gen uint64, idx uint32) string {
	if idx < m.FullBlocks() {
		return BlockKey(ino, gen, idx)
	}
	return TailKey(ino)
}

// DataAAD is the AAD block idx < NBlocks is sealed under.
func (m *Manifest) DataAAD(ino types.Inode, gen uint64, idx uint32) []byte {
	if idx < m.FullBlocks() {
		return BlockAAD(ino, gen, idx)
	}
	return TailAAD(ino, gen, idx)
}

// DataLen is the plaintext length of block idx < NBlocks.
func (m *Manifest) DataLen(idx uint32) int {
	if idx < m.FullBlocks() {
		return int(m.BlockSize)
	}
	return m.TailLen()
}
