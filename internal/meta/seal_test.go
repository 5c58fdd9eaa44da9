package meta

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// envelope names the byte ranges of a sealed blob, so the tamper matrix
// can aim at each field: prefix | nonce | ciphertext | tag | sig. A block
// (SealBlock) has an empty sig.
type envelope struct {
	prefix, nonce, ct, tag, sig [2]int // [lo, hi)
}

func fieldsOf(t *testing.T, blob []byte, sigSize int) envelope {
	t.Helper()
	n, p := binary.Uvarint(blob)
	if p <= 0 || int(n) != len(blob)-p-sigSize {
		t.Fatalf("blob is not uvarint(len) ‖ sealed ‖ %d-byte sig: prefix %d says %d of %d", sigSize, p, n, len(blob))
	}
	sealedEnd := p + int(n)
	return envelope{
		prefix: [2]int{0, p},
		nonce:  [2]int{p, p + 12},
		ct:     [2]int{p + 12, sealedEnd - 16},
		tag:    [2]int{sealedEnd - 16, sealedEnd},
		sig:    [2]int{sealedEnd, len(blob)},
	}
}

func mustTamper(t *testing.T, what string, key sharocrypto.SymKey, vk sharocrypto.VerifyKey, aad, blob []byte) {
	t.Helper()
	pt, err := OpenVerified(key, vk, aad, blob)
	if !errors.Is(err, types.ErrTampered) {
		t.Errorf("%s: accepted (pt %d bytes, err %v)", what, len(pt), err)
	}
	if !errors.Is(err, ErrVerify) {
		t.Errorf("%s: error %v does not wrap ErrVerify", what, err)
	}
}

func mustRefuseBlock(t *testing.T, what string, key sharocrypto.SymKey, aad, blob []byte, want [sha256.Size]byte) {
	t.Helper()
	pt, err := OpenBlock(key, aad, blob, want)
	if !errors.Is(err, types.ErrTampered) {
		t.Errorf("%s: accepted (pt %d bytes, err %v)", what, len(pt), err)
	}
	if !errors.Is(err, ErrVerify) {
		t.Errorf("%s: error %v does not wrap ErrVerify", what, err)
	}
}

// TestEnvelopeLayout pins the wire form: the envelope is exactly
// uvarint(len) ‖ nonce‖ct‖tag ‖ sig, in a buffer with no slack.
func TestEnvelopeLayout(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, _ := sharocrypto.NewSigningPair()
	for _, n := range []int{0, 1, 100, 128 - sharocrypto.SealOverhead, 64 << 10} {
		blob := SealSigned(key, sk, []byte("aad"), make([]byte, n))
		sealed := n + sharocrypto.SealOverhead
		var pre [binary.MaxVarintLen64]byte
		want := binary.PutUvarint(pre[:], uint64(sealed)) + sealed + sharocrypto.SigSize
		if len(blob) != want {
			t.Errorf("plaintext %d: blob %d bytes, want %d", n, len(blob), want)
		}
		if cap(blob) != len(blob) {
			t.Errorf("plaintext %d: cap %d != len %d (not exact-capacity)", n, cap(blob), len(blob))
		}
		fieldsOf(t, blob, sharocrypto.SigSize)

		// A block is the same framed field with no signature, and its
		// digest is the block-domain hash of exactly those bytes.
		block, d := SealBlock(key, []byte("aad"), make([]byte, n))
		if len(block) != want-sharocrypto.SigSize || cap(block) != len(block) {
			t.Errorf("plaintext %d: block len %d cap %d, want both %d", n, len(block), cap(block), want-sharocrypto.SigSize)
		}
		fieldsOf(t, block, 0)
		if d != framedDigest(blockDomain, block, []byte("aad")) {
			t.Errorf("plaintext %d: block digest is not SHA-256(domain ‖ blob ‖ aad)", n)
		}
	}
}

// TestOpenVerifiedTamperMatrix: nothing but the exact blob, under the
// exact AAD and keys, opens — and nothing panics.
func TestOpenVerifiedTamperMatrix(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	const ino, gen = 7, 3
	aad := BlockAAD(ino, gen, 4)
	// 200 bytes of plaintext: a two-byte length prefix, so "flip a byte
	// of the prefix" covers both its bytes.
	plain := bytes.Repeat([]byte("sharoes!"), 25)
	blob := SealSigned(key, sk, aad, plain)
	f := fieldsOf(t, blob, sharocrypto.SigSize)
	if f.prefix[1] != 2 {
		t.Fatalf("want a 2-byte length prefix, got %d", f.prefix[1])
	}

	if pt, err := OpenVerified(key, vk, aad, blob); err != nil || !bytes.Equal(pt, plain) {
		t.Fatalf("control: honest blob rejected: %v", err)
	}

	// One flipped bit in every byte of every field.
	for name, rng := range map[string][2]int{"prefix": f.prefix, "nonce": f.nonce, "ciphertext": f.ct, "tag": f.tag, "signature": f.sig} {
		for i := rng[0]; i < rng[1]; i++ {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x01
			mustTamper(t, fmt.Sprintf("%s byte %d flipped", name, i), key, vk, aad, mut)
			mut[i] = blob[i] ^ 0x80
			mustTamper(t, fmt.Sprintf("%s byte %d high bit flipped", name, i), key, vk, aad, mut)
		}
	}

	// Wrong AAD: another index, another generation, another inode, the
	// same file's manifest, empty, and a prefix/extension of the right one.
	for name, other := range map[string][]byte{
		"next block":      BlockAAD(ino, gen, 5),
		"next gen":        BlockAAD(ino, gen+1, 4),
		"other inode":     BlockAAD(ino+1, gen, 4),
		"as manifest":     ManifestAAD(ino, gen),
		"as table":        TableAAD(ino, "c/3"),
		"as metadata":     MetaAAD(ino, "c/3"),
		"empty":           nil,
		"aad truncated":   aad[:len(aad)-1],
		"aad extended":    append(append([]byte(nil), aad...), 0),
		"aad one bit off": append(append([]byte(nil), aad[:len(aad)-1]...), aad[len(aad)-1]^1),
	} {
		mustTamper(t, "aad: "+name, key, vk, other, blob)
	}

	// Truncation at every length, which includes every field boundary,
	// and extension by trailing bytes.
	for n := 0; n < len(blob); n++ {
		mustTamper(t, fmt.Sprintf("truncated to %d", n), key, vk, aad, blob[:n])
	}
	for _, b := range []int{f.prefix[1], f.nonce[1], f.ct[1], f.tag[1]} {
		mustTamper(t, fmt.Sprintf("cut at field boundary %d", b), key, vk, aad, blob[:b])
	}
	mustTamper(t, "one trailing byte", key, vk, aad, append(append([]byte(nil), blob...), 0))
	mustTamper(t, "a second signature appended", key, vk, aad, append(append([]byte(nil), blob...), blob[f.sig[0]:]...))

	// A non-minimal length prefix naming the same length: the signed
	// bytes include the prefix as stored, so re-framing is detected.
	reframed := append([]byte{blob[0] | 0x80, blob[1] | 0x80, 0x00}, blob[2:]...)
	if n, p := binary.Uvarint(reframed); p != 3 || int(n) != len(plain)+sharocrypto.SealOverhead {
		t.Fatalf("test bug: reframed prefix decodes to %d (%d bytes)", n, p)
	}
	mustTamper(t, "non-minimal length prefix", key, vk, aad, reframed)

	// A signature transplanted between two blobs of equal length, both
	// honestly sealed by the same writer under the same AAD.
	other := SealSigned(key, sk, aad, bytes.Repeat([]byte("SHAROES?"), 25))
	if len(other) != len(blob) {
		t.Fatal("test bug: blobs differ in length")
	}
	swapped := append(append([]byte(nil), blob[:f.sig[0]]...), other[f.sig[0]:]...)
	mustTamper(t, "signature transplanted from a sibling blob", key, vk, aad, swapped)
	// …and the sealed bytes of one under the tag of the other (what a
	// signature over the GCM tag alone would have let through).
	tagSwap := append([]byte(nil), other...)
	copy(tagSwap[f.tag[0]:], blob[f.tag[0]:])
	mustTamper(t, "tag and signature transplanted onto other ciphertext", key, vk, aad, tagSwap)

	// Wrong keys: a reader who holds the DEK but not the DSK re-seals
	// (the forgery the signature exists to catch); the right signature
	// under the wrong DEK; the zero verify key.
	forgerSK, _ := sharocrypto.NewSigningPair()
	mustTamper(t, "re-sealed by a reader without the DSK", key, vk, aad, SealSigned(key, forgerSK, aad, plain))
	mustTamper(t, "opened under another DEK", sharocrypto.NewSymKey(), vk, aad, blob)
	mustTamper(t, "zero verify key", key, sharocrypto.VerifyKey{}, aad, blob)
}

// TestOpenBlockTamperMatrix: nothing but the exact blob, under the exact
// AAD, key and digest, opens — and nothing panics.
func TestOpenBlockTamperMatrix(t *testing.T) {
	key := sharocrypto.NewSymKey()
	const ino, gen = 7, 3
	aad := BlockAAD(ino, gen, 4)
	plain := bytes.Repeat([]byte("sharoes!"), 25) // a two-byte length prefix
	blob, want := SealBlock(key, aad, plain)
	f := fieldsOf(t, blob, 0)
	if f.prefix[1] != 2 {
		t.Fatalf("want a 2-byte length prefix, got %d", f.prefix[1])
	}
	if pt, err := OpenBlock(key, aad, blob, want); err != nil || !bytes.Equal(pt, plain) {
		t.Fatalf("control: honest block rejected: %v", err)
	}

	// One flipped bit in every byte of every field.
	for name, rng := range map[string][2]int{"prefix": f.prefix, "nonce": f.nonce, "ciphertext": f.ct, "tag": f.tag} {
		for i := rng[0]; i < rng[1]; i++ {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x01
			mustRefuseBlock(t, fmt.Sprintf("%s byte %d flipped", name, i), key, aad, mut, want)
			mut[i] = blob[i] ^ 0x80
			mustRefuseBlock(t, fmt.Sprintf("%s byte %d high bit flipped", name, i), key, aad, mut, want)
		}
	}

	// Wrong AAD, each with the digest a manifest would name for the blob
	// actually served: the AAD is under the digest.
	for name, other := range map[string][]byte{
		"next block":    BlockAAD(ino, gen, 5),
		"next gen":      BlockAAD(ino, gen+1, 4),
		"other inode":   BlockAAD(ino+1, gen, 4),
		"as the tail":   TailAAD(ino, gen, 4),
		"as manifest":   ManifestAAD(ino, gen),
		"empty":         nil,
		"aad truncated": aad[:len(aad)-1],
		"aad extended":  append(append([]byte(nil), aad...), 0),
	} {
		mustRefuseBlock(t, "aad: "+name, key, other, blob, want)
	}

	// Truncation at every length and extension by trailing bytes: a
	// signature left on the end (a SealSigned envelope of the same
	// plaintext) is not a block either.
	for n := 0; n < len(blob); n++ {
		mustRefuseBlock(t, fmt.Sprintf("truncated to %d", n), key, aad, blob[:n], want)
	}
	mustRefuseBlock(t, "one trailing byte", key, aad, append(append([]byte(nil), blob...), 0), want)
	sk, _ := sharocrypto.NewSigningPair()
	signed := SealSigned(key, sk, aad, plain)
	mustRefuseBlock(t, "a signed envelope", key, aad, signed, framedDigest(blockDomain, signed, aad))
	reframed := append([]byte{blob[0] | 0x80, blob[1] | 0x80, 0x00}, blob[2:]...)
	mustRefuseBlock(t, "non-minimal length prefix", key, aad, reframed, want)

	// Wrong digest: zero, one bit off, the envelope-domain hash of the
	// same bytes, and the digest of a sibling block.
	offByOne := want
	offByOne[31] ^= 1
	sibling, siblingDigest := SealBlock(key, aad, bytes.Repeat([]byte("SHAROES?"), 25))
	for name, d := range map[string][sha256.Size]byte{
		"zero digest":          {},
		"digest one bit off":   offByOne,
		"envelope-domain hash": framedDigest(envelopeDomain, blob, aad),
		"a sibling's digest":   siblingDigest,
	} {
		mustRefuseBlock(t, name, key, aad, blob, d)
	}
	mustRefuseBlock(t, "sibling under this block's digest", key, aad, sibling, want)

	// Wrong keys: a DEK holder re-seals (the forgery the manifest's
	// signature over the digest exists to catch), and the right blob
	// under another DEK.
	forged, _ := SealBlock(key, aad, plain)
	mustRefuseBlock(t, "re-sealed by a DEK holder", key, aad, forged, want)
	mustRefuseBlock(t, "opened under another DEK", sharocrypto.NewSymKey(), aad, blob, want)
}

// TestBlockPresentedElsewhere: a block sealed for index i is rejected at
// i+1, as the tail and as the manifest, and the manifest is rejected as a
// block — the AAD is under the digest and the signature, not just under
// the GCM tag. Each block check is handed the digest of the very blob
// served, the most an SSP could hope a manifest names.
func TestBlockPresentedElsewhere(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	const ino, gen = 11, 2
	payload := NewManifest(100, 64, 5).Encode()
	block, bd := SealBlock(key, BlockAAD(ino, gen, 0), payload) // same bytes, different role
	manifest := SealSigned(key, sk, ManifestAAD(ino, gen), payload)

	mustRefuseBlock(t, "block 0 served as block 1", key, BlockAAD(ino, gen, 1), block, bd)
	mustTamper(t, "block 0 served as the manifest", key, vk, ManifestAAD(ino, gen), block)
	mustRefuseBlock(t, "manifest served as block 0", key, BlockAAD(ino, gen, 0), manifest, framedDigest(blockDomain, manifest, BlockAAD(ino, gen, 0)))
	mustTamper(t, "manifest replayed into the next generation", key, vk, ManifestAAD(ino, gen+1), manifest)
	if _, err := OpenBlock(key, BlockAAD(ino, gen, 0), block, bd); err != nil {
		t.Errorf("control: %v", err)
	}

	// The tail shares its storage key across generations and indices, so
	// everything that tells one tail from another is in its AAD.
	tail, td := SealBlock(key, TailAAD(ino, gen, 1), payload)
	mustRefuseBlock(t, "block 0 served as the tail", key, TailAAD(ino, gen, 0), block, bd)
	mustRefuseBlock(t, "tail served as the block of its index", key, BlockAAD(ino, gen, 1), tail, td)
	mustRefuseBlock(t, "tail replayed after the file grew a block", key, TailAAD(ino, gen, 2), tail, td)
	mustRefuseBlock(t, "tail replayed into the next generation", key, TailAAD(ino, gen+1, 1), tail, td)
	mustRefuseBlock(t, "another file's tail", key, TailAAD(ino+1, gen, 1), tail, td)
	if _, err := OpenBlock(key, TailAAD(ino, gen, 1), tail, td); err != nil {
		t.Errorf("control: %v", err)
	}
}

// TestEnvelopeDigestIsInjective: moving bytes between the sealed field
// and the AAD, or between the domain tag and the field, changes the
// digest — the framing leaves no two inputs with one signed message.
func TestEnvelopeDigestIsInjective(t *testing.T) {
	seen := map[[32]byte]string{}
	add := func(name string, framed, aad []byte) {
		d := framedDigest(envelopeDomain, framed, aad)
		if prev, dup := seen[d]; dup {
			t.Errorf("%s and %s share a digest", prev, name)
		}
		seen[d] = name
	}
	frame := func(sealed []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(sealed))), sealed...)
	}
	add("ab|c", frame([]byte("ab")), []byte("c"))
	add("a|bc", frame([]byte("a")), []byte("bc"))
	add("abc|", frame([]byte("abc")), nil)
	add("|abc", frame(nil), []byte("abc"))
	add("|", frame(nil), nil)
	// Without the length prefix the first four would be one message.
	if framedDigest(envelopeDomain, []byte("ab"), []byte("c")) != framedDigest(envelopeDomain, []byte("a"), []byte("bc")) {
		t.Error("test assumption: unframed inputs concatenate")
	}
	// The block domain is a second, disjoint message space: the same
	// framed bytes and AAD never give a block digest equal to an
	// envelope's, and neither tag is a prefix of the other.
	if framedDigest(blockDomain, frame([]byte("ab")), []byte("c")) == framedDigest(envelopeDomain, frame([]byte("ab")), []byte("c")) {
		t.Error("block and envelope digests coincide")
	}
	if strings.HasPrefix(envelopeDomain, blockDomain) || strings.HasPrefix(blockDomain, envelopeDomain) {
		t.Error("one domain tag is a prefix of the other")
	}
}

// --- the verified-envelope memo ----------------------------------------------
//
// These helpers reach the memo from inside the package; nothing outside
// meta can read, seed or clear it.

// envelopeMemoKey is the memo key OpenVerified computes for blob — a
// lone envelope or a group member — under vk and aad. The sibling order
// and the shape are not checked: a key for a blob OpenVerified refuses on
// its shape is one no lookup ever makes.
func envelopeMemoKey(vk sharocrypto.VerifyKey, aad, blob []byte) [sha256.Size]byte {
	n, p := binary.Uvarint(blob)
	framedEnd, sigAt := p+int(n), len(blob)-sharocrypto.SigSize
	var m [sha256.Size]byte
	if p > 0 && framedEnd <= sigAt && (sigAt-framedEnd)%sha256.Size == 0 {
		d := framedDigest(envelopeDomain, blob[:framedEnd], aad)
		m, _ = groupMessage(&d, blob[framedEnd:sigAt])
	}
	return memoKey(vk, &m, blob[sigAt:])
}

// memoHolds reports, without counting a lookup, whether k is memoized.
func memoHolds(k [sha256.Size]byte) bool {
	memoMu.Lock()
	defer memoMu.Unlock()
	_, w := memoFind(&k)
	return w >= 0
}

// memoForget drops k from the memo.
func memoForget(k [sha256.Size]byte) {
	memoMu.Lock()
	defer memoMu.Unlock()
	set, _ := memoFind(&k)
	for w := range set {
		if set[w] == k {
			set[w] = [sha256.Size]byte{}
		}
	}
}

// memoEvict pushes k out of its set with memoWays other keys of that set,
// as later inserts that land there do.
func memoEvict(k [sha256.Size]byte) {
	for i := 0; i < memoWays; i++ {
		other := k
		other[sha256.Size-1] ^= byte(i + 1)
		memoAdd(&other)
	}
}

// memoDelta runs fn and returns how many memo hits and misses it made.
func memoDelta(fn func()) (hits, misses int64) {
	h0, m0 := VerifyMemoCounts()
	fn()
	h1, m1 := VerifyMemoCounts()
	return h1 - h0, m1 - m0
}

// TestOpenVerifiedTamperWarm: with the honest envelope in the memo —
// put there by SealSigned, or by a checked open and then hit — every
// mutation of the blob, the AAD, the verify key or the signature is still
// ErrTampered, joins nothing, and leaves the honest entry in place.
func TestOpenVerifiedTamperWarm(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	otherSK, otherVK := sharocrypto.NewSigningPair()
	aad := MetaAAD(7, "c/3")
	plain := bytes.Repeat([]byte("sharoes!"), 25)
	openHonest := func(t *testing.T, blob []byte) {
		t.Helper()
		if pt, err := OpenVerified(key, vk, aad, blob); err != nil || !bytes.Equal(pt, plain) {
			t.Fatalf("honest blob rejected: %v", err)
		}
	}
	for _, warm := range []string{"seeded", "hit"} {
		t.Run(warm, func(t *testing.T) {
			blob := SealSigned(key, sk, aad, plain)
			k := envelopeMemoKey(vk, aad, blob)
			if !memoHolds(k) {
				t.Fatal("SealSigned did not seed the memo")
			}
			if warm == "hit" {
				memoForget(k)
				if h, m := memoDelta(func() { openHonest(t, blob) }); h != 0 || m != 1 {
					t.Fatalf("first open: %d hits, %d misses, want a checked miss", h, m)
				}
			}
			if h, m := memoDelta(func() { openHonest(t, blob) }); h != 1 || m != 0 {
				t.Fatalf("warm open: %d hits, %d misses, want one hit", h, m)
			}

			// Other warm envelopes the attacks borrow from: a sibling of
			// equal length under the same key and AAD, and another
			// object's envelope under its own key.
			sibling := SealSigned(key, sk, aad, bytes.Repeat([]byte("SHAROES?"), 25))
			SealSigned(key, otherSK, aad, plain)
			sigAt := len(blob) - sharocrypto.SigSize
			for i := range blob {
				mut := append([]byte(nil), blob...)
				mut[i] ^= 0x01
				mustTamper(t, fmt.Sprintf("blob byte %d flipped", i), key, vk, aad, mut)
			}
			for i := range aad {
				mut := append([]byte(nil), aad...)
				mut[i] ^= 0x01
				mustTamper(t, fmt.Sprintf("aad byte %d flipped", i), key, vk, mut, blob)
			}
			mustTamper(t, "another object's verify key", key, otherVK, aad, blob)
			swapped := append(append([]byte(nil), blob[:sigAt]...), sibling[sigAt:]...)
			mustTamper(t, "another envelope's signature", key, vk, aad, swapped)

			for name, k := range map[string][sha256.Size]byte{
				"other verify key": envelopeMemoKey(otherVK, aad, blob),
				"swapped sig":      envelopeMemoKey(vk, aad, swapped),
			} {
				if memoHolds(k) {
					t.Errorf("%s: a rejected envelope joined the memo", name)
				}
			}
			if h, m := memoDelta(func() { openHonest(t, blob) }); h != 1 || m != 0 {
				t.Errorf("after the attacks: %d hits, %d misses, want the honest entry still there", h, m)
			}
		})
	}
}

// TestVerifyMemoSetCollision: forged envelopes whose keys land in the set
// of a verified one — as many as the set has ways — each take the full
// check and fail; none hits, none joins, and the verified entry survives.
func TestVerifyMemoSetCollision(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	aad := TableAAD(11, "c/1")
	plain := []byte("a directory table")
	blob := SealSigned(key, sk, aad, plain)
	good := envelopeMemoKey(vk, aad, blob)
	memoForget(good)
	if _, err := OpenVerified(key, vk, aad, blob); err != nil || !memoHolds(good) {
		t.Fatalf("verified envelope not memoized: %v", err)
	}

	// Flip ciphertext bytes, counting up, until the forgery's key lands
	// in good's set (one try in memoSets does).
	f := fieldsOf(t, blob, sharocrypto.SigSize)
	forged := append([]byte(nil), blob...)
	var ctr uint32
	for found := 0; found <= memoWays; {
		ctr++
		binary.LittleEndian.PutUint32(forged[f.ct[0]:], binary.LittleEndian.Uint32(blob[f.ct[0]:])^ctr)
		fk := envelopeMemoKey(vk, aad, forged)
		if memoSetOf(&fk) != memoSetOf(&good) {
			continue
		}
		found++
		h, m := memoDelta(func() { mustTamper(t, fmt.Sprintf("forgery %d in the verified set", found), key, vk, aad, forged) })
		if h != 0 || m != 1 {
			t.Errorf("forgery %d: %d hits, %d misses, want one checked miss", found, h, m)
		}
		if memoHolds(fk) {
			t.Errorf("forgery %d joined the memo", found)
		}
	}
	if !memoHolds(good) {
		t.Fatal("forgeries in its set evicted the verified entry")
	}
	if h, m := memoDelta(func() { _, _ = OpenVerified(key, vk, aad, blob) }); h != 1 || m != 0 {
		t.Errorf("verified envelope after the forgeries: %d hits, %d misses, want one hit", h, m)
	}
}

// TestVerifyMemoHitRefreshes: a verified envelope that is re-read
// between inserts into its set survives four of them, as many as the set
// has ways: each hit moves it to the front, so the inserts evict the keys
// put in before it. Without re-reads, the same four inserts evict it.
func TestVerifyMemoHitRefreshes(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	aad := MetaAAD(12, "c/2")
	blob := SealSigned(key, sk, aad, []byte("a hot metadata copy"))
	hot := envelopeMemoKey(vk, aad, blob)
	for pass, reread := range []bool{true, false} {
		memoForget(hot)
		if _, err := OpenVerified(key, vk, aad, blob); err != nil || !memoHolds(hot) {
			t.Fatalf("verified envelope not memoized: %v", err)
		}
		for i := 0; i < memoWays; i++ {
			k := hot // another key of hot's set, new in each pass
			k[sha256.Size-1] ^= byte(1 + i + memoWays*pass)
			if reread {
				if h, m := memoDelta(func() { _, _ = OpenVerified(key, vk, aad, blob) }); h != 1 || m != 0 {
					t.Fatalf("re-read before insert %d: %d hits, %d misses, want one hit", i, h, m)
				}
			}
			memoAdd(&k)
		}
		if memoHolds(hot) != reread {
			t.Errorf("re-read between inserts %v: hot envelope memoized %v after %d inserts into its set", reread, !reread, memoWays)
		}
	}
}

// TestVerifyMemoConcurrent: eight goroutines open, tamper with, evict and
// re-seal overlapping envelopes, so hits, checked misses, rejections and
// evictions interleave on the shared memo; every honest open returns its
// plaintext and every tampered one fails. Run it under -race (make race).
func TestVerifyMemoConcurrent(t *testing.T) {
	key := sharocrypto.NewSymKey()
	var sks [2]sharocrypto.SignKey
	var vks [2]sharocrypto.VerifyKey
	for i := range sks {
		sks[i], vks[i] = sharocrypto.NewSigningPair()
	}
	const objects, workers, rounds = 12, 8, 60
	aads, plains, blobs := make([][]byte, objects), make([][]byte, objects), make([][]byte, objects)
	for i := range blobs {
		aads[i] = MetaAAD(types.Inode(i), "c/1")
		plains[i] = []byte(fmt.Sprintf("object %d", i))
		blobs[i] = SealSigned(key, sks[i%2], aads[i], plains[i])
	}
	hits, misses := memoDelta(func() {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					i := (g + r*5) % objects
					blob, vk := blobs[i], vks[i%2]
					switch r % 4 {
					case 0, 2:
						if pt, err := OpenVerified(key, vk, aads[i], blob); err != nil || !bytes.Equal(pt, plains[i]) {
							t.Errorf("worker %d: honest object %d rejected: %v", g, i, err)
						}
					case 1:
						mut := append([]byte(nil), blob...)
						mut[(g*7+r)%len(mut)] ^= 0x40
						if _, err := OpenVerified(key, vk, aads[i], mut); !errors.Is(err, types.ErrTampered) {
							t.Errorf("worker %d: tampered object %d accepted", g, i)
						}
					case 3:
						memoEvict(envelopeMemoKey(vk, aads[i], blob))
						fresh := SealSigned(key, sks[i%2], aads[i], plains[i])
						if pt, err := OpenVerified(key, vk, aads[i], fresh); err != nil || !bytes.Equal(pt, plains[i]) {
							t.Errorf("worker %d: re-sealed object %d rejected: %v", g, i, err)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
	if hits == 0 || misses == 0 {
		t.Errorf("%d hits, %d misses: want both interleaved", hits, misses)
	}
}

// TestSealOpenAllocs pins the per-envelope allocation count on a 64 KiB
// block to a small constant: one output buffer per seal, one plaintext
// per open, plus the fixed-size cipher, hash and signature state. What it
// guards against is a second payload-sized buffer creeping back in, so
// it also bounds the bytes.
func TestSealOpenAllocs(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	aad := BlockAAD(9, 1, 0)
	plain := make([]byte, 64<<10)
	blob := SealSigned(key, sk, aad, plain)
	block, digest := SealBlock(key, aad, plain)

	const maxAllocs = 8
	if n := testing.AllocsPerRun(50, func() { sink = SealSigned(key, sk, aad, plain) }); n > maxAllocs {
		t.Errorf("SealSigned(64 KiB): %.0f allocs/op, want <= %d", n, maxAllocs)
	}
	if n := testing.AllocsPerRun(50, func() {
		pt, err := OpenVerified(key, vk, aad, blob)
		if err != nil {
			panic(err)
		}
		sink = pt
	}); n > maxAllocs {
		t.Errorf("OpenVerified(64 KiB): %.0f allocs/op, want <= %d", n, maxAllocs)
	}
	// A block is the envelope without the signature: fewer allocations,
	// never more.
	const maxBlockAllocs = 4
	if n := testing.AllocsPerRun(50, func() { sink, _ = SealBlock(key, aad, plain) }); n > maxBlockAllocs {
		t.Errorf("SealBlock(64 KiB): %.0f allocs/op, want <= %d", n, maxBlockAllocs)
	}
	if n := testing.AllocsPerRun(50, func() {
		pt, err := OpenBlock(key, aad, block, digest)
		if err != nil {
			panic(err)
		}
		sink = pt
	}); n > maxBlockAllocs {
		t.Errorf("OpenBlock(64 KiB): %.0f allocs/op, want <= %d", n, maxBlockAllocs)
	}

	// Bytes: one payload-sized buffer each way, never two.
	for name, fn := range map[string]func(){
		"SealSigned":   func() { sink = SealSigned(key, sk, aad, plain) },
		"OpenVerified": func() { sink, _ = OpenVerified(key, vk, aad, blob) },
		"SealBlock":    func() { sink, _ = SealBlock(key, aad, plain) },
		"OpenBlock":    func() { sink, _ = OpenBlock(key, aad, block, digest) },
	} {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(len(plain)*3/2); got > limit {
			t.Errorf("%s(64 KiB): %d B/op, want one payload-sized buffer (<= %d)", name, got, limit)
		}
	}
}

var sink []byte

func benchBlock(b *testing.B) (sharocrypto.SymKey, sharocrypto.SignKey, sharocrypto.VerifyKey, []byte, []byte) {
	sk, vk := sharocrypto.NewSigningPair()
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	return sharocrypto.NewSymKey(), sk, vk, BlockAAD(9, 1, 0), make([]byte, 64<<10)
}

// BenchmarkSealSigned64K is one file block through the whole envelope:
// AES-GCM, the SHA-256 pass over the sealed bytes, one Ed25519 signature.
func BenchmarkSealSigned64K(b *testing.B) {
	key, sk, _, aad, plain := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = SealSigned(key, sk, aad, plain)
	}
}

// BenchmarkOpenVerified64K is the warm read side: digest, a memo hit
// (SealSigned put the envelope there), then open.
func BenchmarkOpenVerified64K(b *testing.B) {
	key, sk, vk, aad, plain := benchBlock(b)
	blob := SealSigned(key, sk, aad, plain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := OpenVerified(key, vk, aad, blob)
		if err != nil {
			b.Fatal(err)
		}
		sink = pt
	}
}

// BenchmarkOpenVerifiedCold is the first read of an envelope: the memo
// forgets it before every open, so each one is a miss that pays the
// Ed25519 check — BenchmarkOpenVerified64K's blob, cold.
func BenchmarkOpenVerifiedCold(b *testing.B) {
	key, sk, vk, aad, plain := benchBlock(b)
	blob := SealSigned(key, sk, aad, plain)
	k := envelopeMemoKey(vk, aad, blob)
	b.ResetTimer()
	hits, misses := memoDelta(func() {
		for i := 0; i < b.N; i++ {
			memoForget(k)
			pt, err := OpenVerified(key, vk, aad, blob)
			if err != nil {
				b.Fatal(err)
			}
			sink = pt
		}
	})
	if hits != 0 || misses != int64(b.N) {
		b.Fatalf("%d hits, %d misses in %d cold opens", hits, misses, b.N)
	}
}

// BenchmarkSealBlock64K is one file block as it is stored now: AES-GCM and
// the SHA-256 pass for its digest, no signature.
func BenchmarkSealBlock64K(b *testing.B) {
	key, _, _, aad, plain := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = SealBlock(key, aad, plain)
	}
}

// BenchmarkOpenBlock64K is the read side: digest, compare, then open.
func BenchmarkOpenBlock64K(b *testing.B) {
	key, _, _, aad, plain := benchBlock(b)
	blob, d := SealBlock(key, aad, plain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := OpenBlock(key, aad, blob, d)
		if err != nil {
			b.Fatal(err)
		}
		sink = pt
	}
}
