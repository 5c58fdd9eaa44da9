package meta

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	errEnvelopeShape = errors.New("meta: blob is not one framed field, 32-byte sibling digests and one signature")
	errGroupOrder    = errors.New("meta: sibling digests are not strictly ascending or repeat the member's own")
	errBlockShape    = errors.New("meta: block is not exactly one framed field")
	errBlockDigest   = errors.New("meta: block does not match the manifest's digest")
)

// The domain tags separate the framed digests from each other, from the
// signed group message and from every other use of SHA-256 in the system
// (content hashes, HMAC row keys, fingerprints). Each is a fixed string
// ending in NUL, and none is a prefix of another, so no block digest is a
// group member's digest and neither is ever a signed message.
const (
	envelopeDomain = "sharoes/signed-envelope\x00" // a group member's digest
	groupDomain    = "sharoes/signed-group\x00"    // the signed message
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

// groupMessage is the message a group's one signature covers:
// SHA-256(groupDomain ‖ every member digest in ascending byte order).
// own is one member's digest and sibs the others', 32 bytes each, as the
// member stores them; own is streamed into its place, nothing is
// concatenated. ok is false unless sibs is strictly ascending and does
// not hold own: a group is a set, and each member names it one way only.
func groupMessage(own *[sha256.Size]byte, sibs []byte) (m [sha256.Size]byte, ok bool) {
	h := sha256.New()
	h.Write([]byte(groupDomain))
	placed := false
	var prev []byte
	for ; len(sibs) > 0; sibs = sibs[sha256.Size:] {
		s := sibs[:sha256.Size]
		if prev != nil && bytes.Compare(prev, s) >= 0 {
			return m, false
		}
		if !placed {
			switch c := bytes.Compare(own[:], s); {
			case c == 0:
				return m, false
			case c < 0:
				h.Write(own[:])
				placed = true
			}
		}
		h.Write(s)
		prev = s
	}
	if !placed {
		h.Write(own[:])
	}
	h.Sum(m[:0])
	return m, true
}

// signs counts Ed25519 signatures made, as meta.sign.count (SignCount).
var signs atomic.Int64

// SignCount returns the process-wide number of signatures sealing has
// made (meta.sign.count): one per SealSigned and one per SealGroup.
func SignCount() int64 { return signs.Load() }

// sign signs the group message m with sk, counts the signature, and
// records the group in the verified memo under sk's verify key, so the
// writer reading any member back checks nothing.
func sign(sk sharocrypto.SignKey, m *[sha256.Size]byte) []byte {
	sig := sk.Sign(m[:])
	signs.Add(1)
	k := memoKey(sk.VerifyKey(), m, sig)
	memoAdd(&k)
	return sig
}

// --- verified-envelope memo ---------------------------------------------------
//
// The client caches opened objects, so an eviction, a Refresh, a second
// session or a re-read of what the process itself just wrote hands
// OpenVerified bytes it has already accepted. The memo remembers accepted
// groups by memoKey, so those repeats skip Ed25519 (DESIGN.md §7.18).
// A hit means this exact group message — so this exact set of member
// digests, each binding its framed bytes and AAD — carried this exact
// signature under this verify key when it last passed vk.Verify or was
// signed by the matching SignKey: accepting any member of it again is the
// same decision. One entry serves every member of a group. The memo is
// process-wide: every session in one process shares one trust domain
// (DESIGN.md §5).
//
// It is 2^12 sets of four 32-byte keys, 512 KiB, each set most recently
// used first; a key's first bytes pick its set, a hit or an insert moves
// the key to the front of its set, and an insert into a full set evicts
// the set's least recently used key. Four ways, not one: in a
// direct-mapped table every key that lands on a live entry's slot evicts
// it, and a test tree of a dozen objects lost one that way in about one
// run of fifty.
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

// memoKey is SHA-256(vk ‖ m ‖ sig), all 32 bytes of it: m is the group
// message, so the key binds the verify key, every member's framed bytes
// and AAD, and the signature.
func memoKey(vk sharocrypto.VerifyKey, m *[sha256.Size]byte, sig []byte) [sha256.Size]byte {
	var in [sharocrypto.VerifyKeySize + sha256.Size + sharocrypto.SigSize]byte
	b := vk.AppendMarshal(in[:0])
	b = append(b, m[:]...)
	return sha256.Sum256(append(b, sig...))
}

// memoSetOf is the index of k's set.
func memoSetOf(k *[sha256.Size]byte) uint32 { return binary.LittleEndian.Uint32(k[:]) % memoSets }

// memoFind returns k's set and k's way in it, -1 if k is not in it.
// memoMu held.
func memoFind(k *[sha256.Size]byte) (*[memoWays][sha256.Size]byte, int) {
	set := &memo[memoSetOf(k)]
	for w := range set {
		if set[w] == *k {
			return set, w
		}
	}
	return set, -1
}

// memoHas reports whether k is in the memo, counting the hit or miss. A
// hit moves k to the front of its set.
func memoHas(k *[sha256.Size]byte) bool {
	memoMu.Lock()
	set, w := memoFind(k)
	hit := w >= 0
	if hit {
		memoFront(set, w, k)
	}
	memoMu.Unlock()
	if hit {
		memoHit.Add(1)
	} else {
		memoMiss.Add(1)
	}
	return hit
}

// memoAdd records k as the most recently used key of its set.
func memoAdd(k *[sha256.Size]byte) {
	memoMu.Lock()
	set, w := memoFind(k)
	memoFront(set, w, k)
	memoMu.Unlock()
}

// memoFront moves k to the front of set from its way w or, when k is not
// in the set (w < 0), from the last way, evicting the key there. memoMu
// held.
func memoFront(set *[memoWays][sha256.Size]byte, w int, k *[sha256.Size]byte) {
	if w < 0 {
		w = memoWays - 1
	}
	copy(set[1:w+1], set[:w])
	set[0] = *k
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

// SealSigned encrypts plaintext under key, binding aad, and signs it with
// sk: the envelope for every lone signed structure at the SSP, metadata
// variants (MEK+MSK) and manifests (DEK+DSK). It is a group of one
// (SealGroup), so its layout is uvarint(len(sealed)) ‖ sealed ‖ sig, built
// in one exact-capacity buffer. File blocks are not signed on their own:
// the manifest names each by its digest (SealBlock).
//
// The signature is what lets readers — who necessarily hold the symmetric
// key — detect writes by non-writers, without trusting the SSP; that is
// why what is signed is a collision-resistant hash of all of
// nonce‖ciphertext‖tag and the aad (framedDigest under envelopeDomain,
// then groupMessage), never the GCM tag alone, which anyone holding the
// key can forge. The paper's writers likewise "sign the hash of the
// content" (§II-B). The new envelope goes into the verified memo, so the
// writer reading it back checks nothing.
func SealSigned(key sharocrypto.SymKey, sk sharocrypto.SignKey, aad, plaintext []byte) []byte {
	out := sealFramed(key, aad, plaintext, sharocrypto.SigSize)
	d := framedDigest(envelopeDomain, out, aad)
	m, _ := groupMessage(&d, nil)
	return append(out, sign(sk, &m)...)
}

// GroupMember is one blob of a signed group: Plain sealed under Key,
// bound to AAD.
type GroupMember struct {
	Key   sharocrypto.SymKey
	AAD   []byte
	Plain []byte
}

// SealGroup seals every member and signs them all with one signature
// (DESIGN.md §7.19): the blobs one update writes together, such as the
// CAP views of one directory table. Member i's digest is d_i =
// framedDigest(envelopeDomain, framed_i, aad_i); the signed message is
// groupMessage over every d_i; member i is stored as framed_i ‖ the other
// members' digests, ascending ‖ sig, each in one exact-capacity buffer.
// Every member still opens on its own (OpenVerified), and a group of one
// is exactly SealSigned's envelope. The group joins the verified memo
// once. Blobs are returned in members' order.
func SealGroup(sk sharocrypto.SignKey, members []GroupMember) [][]byte {
	n := len(members)
	if n == 0 {
		return nil
	}
	extra := (n-1)*sha256.Size + sharocrypto.SigSize
	out := make([][]byte, n)
	ds := make([][sha256.Size]byte, n)
	for i, mb := range members {
		out[i] = sealFramed(mb.Key, mb.AAD, mb.Plain, extra)
		ds[i] = framedDigest(envelopeDomain, out[i], mb.AAD)
	}
	sorted := append([][sha256.Size]byte(nil), ds...)
	slices.SortFunc(sorted, func(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
	sibs := make([]byte, 0, (n-1)*sha256.Size)
	for _, d := range sorted[1:] {
		sibs = append(sibs, d[:]...)
	}
	// Fresh nonces make the digests distinct, so sibs is strictly
	// ascending and groupMessage cannot refuse it.
	m, _ := groupMessage(&sorted[0], sibs)
	sig := sign(sk, &m)
	for i := range out {
		for _, d := range sorted {
			if d != ds[i] {
				out[i] = append(out[i], d[:]...)
			}
		}
		out[i] = append(out[i], sig...)
	}
	return out
}

// OpenVerified reverses SealSigned and SealGroup for one member: it checks
// the shape — one framed field, then k 32-byte sibling digests strictly
// ascending and none equal to the member's own, then one signature —
// rebuilds the group message from the member's own digest and its
// siblings, verifies the signature with vk, then decrypts with key. Any
// failure is reported as ErrVerify wrapped with types.ErrTampered so
// clients surface a uniform integrity error. A group in the verified memo
// skips vk.Verify, never the shape check or the decryption; one that
// passes vk.Verify joins the memo.
func OpenVerified(key sharocrypto.SymKey, vk sharocrypto.VerifyKey, aad, blob []byte) ([]byte, error) {
	r := binenc.NewReader(blob)
	sealed, err := r.BytesField()
	if err != nil {
		return nil, tampered(err)
	}
	rest := r.Remaining()
	if rest < sharocrypto.SigSize || (rest-sharocrypto.SigSize)%sha256.Size != 0 {
		return nil, tampered(errEnvelopeShape)
	}
	framedEnd, sigAt := len(blob)-rest, len(blob)-sharocrypto.SigSize
	sig := blob[sigAt:]
	d := framedDigest(envelopeDomain, blob[:framedEnd], aad)
	m, ok := groupMessage(&d, blob[framedEnd:sigAt])
	if !ok {
		return nil, tampered(errGroupOrder)
	}
	if k := memoKey(vk, &m, sig); !memoHas(&k) {
		if err := vk.Verify(m[:], sig); err != nil {
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
// manifest names for this block, appending the plaintext to dst
// (SymKey.AppendOpen). It checks the shape (exactly one framed field,
// nothing after it), then the digest in constant time, then opens the
// AES-GCM seal; any failure is ErrVerify wrapped with types.ErrTampered.
// The digest, not the GCM tag, is what authenticates the block: anyone
// holding the DEK can seal a block that opens, but only a writer's
// signed manifest can name it.
func OpenBlock(dst []byte, key sharocrypto.SymKey, aad, blob []byte, want [sha256.Size]byte) ([]byte, error) {
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
	pt, err := key.AppendOpen(dst, sealed, aad)
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
	var buf [48]byte
	return string(AppendTableKey(buf[:0], ino, variant))
}

// AppendTableKey appends TableKey(ino, variant) to dst: a caller that only
// looks the key up can build it without allocating.
func AppendTableKey(dst []byte, ino types.Inode, variant string) []byte {
	dst = append(dst, "t/"...)
	dst = strconv.AppendUint(dst, uint64(ino), 10)
	return append(append(dst, '/'), variant...)
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
