package meta

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"github.com/sharoes/sharoes/internal/binenc"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// ErrVerify reports a signature or decryption failure on a sealed blob —
// evidence of an unauthorized write or SSP tampering.
var ErrVerify = errors.New("meta: sealed object failed verification")

var errEnvelopeShape = errors.New("meta: blob is not one framed field plus one signature")

// envelopeDomain separates the envelope digest from every other use of
// SHA-256 in the system (content hashes, HMAC row keys, fingerprints).
const envelopeDomain = "sharoes/signed-envelope\x00"

// envelopeDigest is the 32-byte message the envelope's signature covers:
// SHA-256(domain ‖ framed ‖ aad), where framed is the blob's own leading
// bytes — uvarint(len) ‖ nonce‖ciphertext‖tag — exactly as stored. The
// length prefix makes the split between sealed bytes and AAD
// unambiguous, so distinct (sealed, aad) pairs never share a digest
// input. Streamed: nothing is concatenated.
func envelopeDigest(framed, aad []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(envelopeDomain))
	h.Write(framed)
	h.Write(aad)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// SealSigned encrypts plaintext under key, binding aad, then signs a
// digest of the whole sealed form and the aad with sk (envelopeDigest).
// This is the envelope for every signed structure at the SSP: metadata
// objects (MEK+MSK), directory tables, file blocks and manifests
// (DEK+DSK). The signature is what lets readers — who necessarily hold
// the symmetric key — detect writes by non-writers, without trusting the
// SSP; that is why the digest is a collision-resistant hash of all of
// nonce‖ciphertext‖tag and never the GCM tag alone, which anyone holding
// the key can forge. The paper's writers likewise "sign the hash of the
// content" (§II-B).
//
// Layout: uvarint(len(sealed)) ‖ sealed ‖ sig, built in one
// exact-capacity buffer.
func SealSigned(key sharocrypto.SymKey, sk sharocrypto.SignKey, aad, plaintext []byte) []byte {
	sealedLen := len(plaintext) + sharocrypto.SealOverhead
	var prefix [binary.MaxVarintLen64]byte
	p := binary.PutUvarint(prefix[:], uint64(sealedLen))
	out := make([]byte, 0, p+sealedLen+sharocrypto.SigSize)
	out = append(out, prefix[:p]...)
	out = key.AppendSeal(out, plaintext, aad)
	d := envelopeDigest(out, aad)
	return append(out, sk.Sign(d[:])...)
}

// OpenVerified reverses SealSigned: verifies the signature with vk, then
// decrypts with key. Either failure — or a blob that is not exactly one
// framed field plus one signature — is reported as ErrVerify wrapped with
// types.ErrTampered so clients surface a uniform integrity error.
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
	d := envelopeDigest(framed, aad)
	if err := vk.Verify(d[:], sig); err != nil {
		return nil, tampered(err)
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
