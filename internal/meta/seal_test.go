package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// envelope names the byte ranges of a sealed blob, so the tamper matrix
// can aim at each field: prefix | nonce | ciphertext | tag | sig.
type envelope struct {
	prefix, nonce, ct, tag, sig [2]int // [lo, hi)
}

func fieldsOf(t *testing.T, blob []byte) envelope {
	t.Helper()
	n, p := binary.Uvarint(blob)
	if p <= 0 || int(n) != len(blob)-p-sharocrypto.SigSize {
		t.Fatalf("blob is not uvarint(len) ‖ sealed ‖ sig: prefix %d says %d of %d", p, n, len(blob))
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
		fieldsOf(t, blob)
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
	f := fieldsOf(t, blob)
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

// TestBlockPresentedElsewhere: a block sealed for index i is rejected at
// i+1 and as the manifest, and the manifest is rejected as a block —
// the AAD is under the signature, not just under the GCM tag.
func TestBlockPresentedElsewhere(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	const ino, gen = 11, 2
	man := (&Manifest{Size: 100, BlockSize: 64, NBlocks: 2, MTime: 5}).Encode()
	block := SealSigned(key, sk, BlockAAD(ino, gen, 0), man) // same bytes, different role
	manifest := SealSigned(key, sk, ManifestAAD(ino, gen), man)

	mustTamper(t, "block 0 served as block 1", key, vk, BlockAAD(ino, gen, 1), block)
	mustTamper(t, "block 0 served as the manifest", key, vk, ManifestAAD(ino, gen), block)
	mustTamper(t, "manifest served as block 0", key, vk, BlockAAD(ino, gen, 0), manifest)
	mustTamper(t, "manifest replayed into the next generation", key, vk, ManifestAAD(ino, gen+1), manifest)
	if _, err := OpenVerified(key, vk, BlockAAD(ino, gen, 0), block); err != nil {
		t.Errorf("control: %v", err)
	}

	// The tail shares its storage key across generations and indices, so
	// everything that tells one tail from another is in its AAD.
	tail := SealSigned(key, sk, TailAAD(ino, gen, 1), man)
	mustTamper(t, "block 0 served as the tail", key, vk, TailAAD(ino, gen, 0), block)
	mustTamper(t, "tail served as the block of its index", key, vk, BlockAAD(ino, gen, 1), tail)
	mustTamper(t, "tail replayed after the file grew a block", key, vk, TailAAD(ino, gen, 2), tail)
	mustTamper(t, "tail replayed into the next generation", key, vk, TailAAD(ino, gen+1, 1), tail)
	mustTamper(t, "another file's tail", key, vk, TailAAD(ino+1, gen, 1), tail)
	if _, err := OpenVerified(key, vk, TailAAD(ino, gen, 1), tail); err != nil {
		t.Errorf("control: %v", err)
	}
}

// TestEnvelopeDigestIsInjective: moving bytes between the sealed field
// and the AAD, or between the domain tag and the field, changes the
// digest — the framing leaves no two inputs with one signed message.
func TestEnvelopeDigestIsInjective(t *testing.T) {
	seen := map[[32]byte]string{}
	add := func(name string, framed, aad []byte) {
		d := envelopeDigest(framed, aad)
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
	if envelopeDigest([]byte("ab"), []byte("c")) != envelopeDigest([]byte("a"), []byte("bc")) {
		t.Error("test assumption: unframed inputs concatenate")
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

	// Bytes: one payload-sized buffer each way, never two.
	for name, fn := range map[string]func(){
		"SealSigned":   func() { sink = SealSigned(key, sk, aad, plain) },
		"OpenVerified": func() { sink, _ = OpenVerified(key, vk, aad, blob) },
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

// BenchmarkOpenVerified64K is the read side: digest, verify, then open.
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
