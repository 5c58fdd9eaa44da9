package sharocrypto

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// testPrivateKey is shared across tests because RSA keygen is slow.
var (
	testKeyOnce sync.Once
	testKey     PrivateKey
)

func rsaTestKey(t testing.TB) PrivateKey {
	testKeyOnce.Do(func() {
		var err error
		testKey, err = NewPrivateKey()
		if err != nil {
			t.Fatal(err)
		}
	})
	return testKey
}

// testAAD is the AAD of the tests that do not check binding: Seal and
// Open panic on an empty one.
var testAAD = []byte("inode:7")

func TestSymSealOpenRoundTrip(t *testing.T) {
	k := NewSymKey()
	for _, msg := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("sharoes"), 1000)} {
		blob := k.Seal(msg, []byte("aad"))
		got, err := k.Open(blob, []byte("aad"))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("round trip mismatch: %d bytes in, %d out", len(msg), len(got))
		}
	}
}

func TestSymSealDistinctNonces(t *testing.T) {
	k := NewSymKey()
	a := k.Seal([]byte("same"), testAAD)
	b := k.Seal([]byte("same"), testAAD)
	if bytes.Equal(a, b) {
		t.Error("two seals of the same plaintext produced identical ciphertext")
	}
}

func TestSymOpenRejectsWrongKey(t *testing.T) {
	k1, k2 := NewSymKey(), NewSymKey()
	blob := k1.Seal([]byte("secret"), testAAD)
	if _, err := k2.Open(blob, testAAD); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong key: err = %v, want ErrDecrypt", err)
	}
}

func TestSymOpenRejectsWrongAAD(t *testing.T) {
	k := NewSymKey()
	blob := k.Seal([]byte("secret"), []byte("inode:7"))
	if _, err := k.Open(blob, []byte("inode:8")); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong aad: err = %v, want ErrDecrypt", err)
	}
}

func TestSymOpenRejectsTamper(t *testing.T) {
	k := NewSymKey()
	blob := k.Seal([]byte("secret data block"), testAAD)
	for _, i := range []int{0, gcmNonceSize, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x01
		if _, err := k.Open(mut, testAAD); !errors.Is(err, ErrDecrypt) {
			t.Errorf("tamper at %d: err = %v, want ErrDecrypt", i, err)
		}
	}
	if _, err := k.Open(blob[:5], testAAD); !errors.Is(err, ErrShortBlob) {
		t.Errorf("short blob: err = %v, want ErrShortBlob", err)
	}
}

func TestSymSealOverhead(t *testing.T) {
	k := NewSymKey()
	msg := make([]byte, 1234)
	if got := len(k.Seal(msg, testAAD)); got != len(msg)+SealOverhead {
		t.Errorf("overhead = %d, want %d", got-len(msg), SealOverhead)
	}
}

func TestSymKeyProperty(t *testing.T) {
	k := NewSymKey()
	f := func(msg, aad []byte) bool {
		aad = append([]byte("aad"), aad...) // an empty AAD panics
		got, err := k.Open(k.Seal(msg, aad), aad)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymKeyFromBytes(t *testing.T) {
	k := NewSymKey()
	k2, err := SymKeyFromBytes(k.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(k2) {
		t.Error("round trip mismatch")
	}
	if _, err := SymKeyFromBytes(k.Marshal()[:10]); !errors.Is(err, ErrKeySize) {
		t.Errorf("short key err = %v", err)
	}
	// Marshal hands out a copy: writing to it leaves the key as it was.
	raw := k.Marshal()
	raw[0] ^= 0xff
	if !k.Equal(k2) {
		t.Error("Marshal exposed the key's own bytes")
	}
	// SymKeyFromBytes keeps a copy: writing to its input afterwards
	// leaves the key as it was.
	k3, _ := SymKeyFromBytes(raw)
	raw[0] ^= 0xff
	if k3.Equal(k) || !reflect.DeepEqual(k, k2) {
		t.Error("SymKeyFromBytes kept its caller's bytes, or a round trip is not DeepEqual")
	}
	// 16 zero bytes are the zero key, so a decoded "inaccessible" key is
	// DeepEqual to a never-set one.
	zero, err := SymKeyFromBytes(make([]byte, SymKeySize))
	if err != nil || !zero.IsZero() || !reflect.DeepEqual(zero, SymKey{}) {
		t.Errorf("SymKeyFromBytes(zeros) = %v, %v: want the zero key", zero.IsZero(), err)
	}
	if got := (SymKey{}).Marshal(); !bytes.Equal(got, make([]byte, SymKeySize)) {
		t.Errorf("zero key marshals as %d bytes, want %d zeros", len(got), SymKeySize)
	}
}

// TestEmptyAADPanics: a seal or open that binds no AAD is a bug, so it
// panics rather than producing or accepting a blob an SSP could swap
// for any other sealed under the same key.
func TestEmptyAADPanics(t *testing.T) {
	k := NewSymKey()
	blob := k.Seal([]byte("x"), testAAD)
	calls := map[string]func(aad []byte){
		"Seal":       func(aad []byte) { k.Seal([]byte("x"), aad) },
		"AppendSeal": func(aad []byte) { k.AppendSeal(nil, []byte("x"), aad) },
		"Open":       func(aad []byte) { _, _ = k.Open(blob, aad) },
		"AppendOpen": func(aad []byte) { _, _ = k.AppendOpen(nil, blob, aad) },
	}
	for name, call := range calls {
		for _, aad := range [][]byte{nil, {}} {
			func() {
				defer func() {
					if r := recover(); r != errEmptyAAD {
						t.Errorf("%s with AAD %#v: recovered %v, want the empty-AAD panic", name, aad, r)
					}
				}()
				call(aad)
			}()
		}
	}
}

func TestSymKeyIsZero(t *testing.T) {
	var z SymKey
	if !z.IsZero() {
		t.Error("zero key not IsZero")
	}
	if NewSymKey().IsZero() {
		t.Error("random key IsZero")
	}
}

func TestSymKeyEqual(t *testing.T) {
	k := NewSymKey()
	same, err := SymKeyFromBytes(k.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(same) {
		t.Error("identical keys not Equal")
	}
	if !k.Equal(k) {
		t.Error("key not Equal to itself")
	}
	if k.Equal(NewSymKey()) {
		t.Error("distinct keys Equal")
	}
	// A single flipped bit must break equality (the constant-time compare
	// covers every byte).
	for i := 0; i < SymKeySize; i++ {
		raw := k.Marshal()
		raw[i] ^= 1
		flipped, err := SymKeyFromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if k.Equal(flipped) {
			t.Fatalf("key Equal after flipping byte %d", i)
		}
	}
	var z SymKey
	if !z.Equal(SymKey{}) {
		t.Error("zero keys not Equal")
	}
}

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	k := NewSymKey()
	a := k.Derive("alice")
	b := k.Derive("alice")
	c := k.Derive("bob")
	if !a.Equal(b) {
		t.Error("Derive not deterministic")
	}
	if a.Equal(c) {
		t.Error("Derive collision for distinct labels")
	}
	if a.Equal(k) {
		t.Error("Derive returned base key")
	}
	if NewSymKey().Derive("alice").Equal(a) {
		t.Error("Derive ignores base key")
	}
}

func TestNameTagDistinctFromDerive(t *testing.T) {
	k := NewSymKey()
	tag := k.NameTag("file-a")
	if tag == k.NameTag("file-b") {
		t.Error("NameTag collision")
	}
	if tag != k.NameTag("file-a") {
		t.Error("NameTag not deterministic")
	}
	d := k.Derive("file-a")
	tagKey, err := SymKeyFromBytes(tag[:SymKeySize])
	if err != nil {
		t.Fatal(err)
	}
	if tagKey.Equal(d) {
		t.Error("NameTag and Derive share a keystream")
	}
}

func TestSigningRoundTrip(t *testing.T) {
	sk, vk := NewSigningPair()
	msg := []byte("directory table v3")
	sig := sk.Sign(msg)
	if err := vk.Verify(msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := vk.Verify([]byte("directory table v4"), sig); !errors.Is(err, ErrBadSig) {
		t.Errorf("forged msg: err = %v, want ErrBadSig", err)
	}
	_, vk2 := NewSigningPair()
	if err := vk2.Verify(msg, sig); !errors.Is(err, ErrBadSig) {
		t.Errorf("wrong verifier: err = %v, want ErrBadSig", err)
	}
}

func TestSigningMarshal(t *testing.T) {
	sk, vk := NewSigningPair()
	sk2, err := SignKeyFromBytes(sk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	vk2, err := VerifyKeyFromBytes(vk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("metadata object")
	if err := vk2.Verify(sk2.Sign(msg), nil); err == nil {
		t.Error("verify of nil sig succeeded")
	}
	if err := vk2.Verify(msg, sk2.Sign(msg)); err != nil {
		t.Errorf("round-tripped keys fail to verify: %v", err)
	}
	if !sk.VerifyKey().Equal(vk) {
		t.Error("VerifyKey() does not match pair")
	}
	if _, err := SignKeyFromBytes([]byte("short")); err == nil {
		t.Error("short sign key accepted")
	}
	if _, err := VerifyKeyFromBytes([]byte("short")); err == nil {
		t.Error("short verify key accepted")
	}
}

// TestSignKeyExpandsLazily: a key rebuilt from its seed is the same key
// as the stdlib builds eagerly — same Marshal, same VerifyKey, same
// (deterministic) signatures — whether or not it has been expanded yet,
// and copies of the value share one expansion, also when the first Sign
// is raced from several goroutines (the parallel block path).
func TestSignKeyExpandsLazily(t *testing.T) {
	seed := bytes.Repeat([]byte{0x5a}, SignKeySeedSize)
	want := ed25519.NewKeyFromSeed(seed)
	msg := []byte("a digest-sized message, 32 byte.")

	sk, err := SignKeyFromBytes(seed)
	if err != nil {
		t.Fatal(err)
	}
	if sk.IsZero() {
		t.Error("fresh key IsZero")
	}
	if (*sk.k).priv != nil {
		t.Error("SignKeyFromBytes expanded the key eagerly")
	}
	if !bytes.Equal(sk.Marshal(), seed) {
		t.Error("Marshal before expansion is not the seed")
	}
	if (*sk.k).priv != nil {
		t.Error("Marshal expanded the key")
	}

	cp := sk // a copy, as metadata structs are copied
	var wg sync.WaitGroup
	sigs := make([][]byte, 8)
	for i := range sigs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sigs[i] = cp.Sign(msg)
		}(i)
	}
	wg.Wait()
	for i, sig := range sigs {
		if !bytes.Equal(sig, ed25519.Sign(want, msg)) {
			t.Errorf("signature %d differs from the eagerly built key's", i)
		}
	}
	if (*sk.k).priv == nil {
		t.Error("expansion through a copy is not shared with the original")
	}
	if !bytes.Equal(sk.VerifyKey().Marshal(), want.Public().(ed25519.PublicKey)) {
		t.Error("VerifyKey differs from the eagerly built key's")
	}
	if !bytes.Equal(sk.Marshal(), seed) {
		t.Error("Marshal after expansion is not the seed")
	}

	// The seed is copied in: the caller's buffer is not retained.
	seed[0] ^= 0xff
	if bytes.Equal(sk.Marshal(), seed) {
		t.Error("SignKey aliases the caller's seed buffer")
	}
}

// TestAppendSeal: the append form writes exactly Seal's bytes after what
// dst already holds, in place when dst has the room, and Open reads them.
func TestAppendSeal(t *testing.T) {
	k := NewSymKey()
	aad, msg := []byte("block|1|0|0"), bytes.Repeat([]byte("m"), 100)
	head := []byte("hdr")
	buf := make([]byte, len(head), len(head)+len(msg)+SealOverhead)
	copy(buf, head)
	out := k.AppendSeal(buf, msg, aad)
	if &out[0] != &buf[0] {
		t.Error("AppendSeal reallocated a buffer with exact capacity")
	}
	if len(out) != cap(buf) || !bytes.Equal(out[:len(head)], head) {
		t.Errorf("len %d (cap %d), head %q", len(out), cap(buf), out[:len(head)])
	}
	pt, err := k.Open(out[len(head):], aad)
	if err != nil || !bytes.Equal(pt, msg) {
		t.Errorf("Open of the appended bytes: %v", err)
	}
	if grown := k.AppendSeal(nil, msg, aad); len(grown) != len(msg)+SealOverhead {
		t.Errorf("AppendSeal(nil) = %d bytes", len(grown))
	}
}

func TestZeroKeysBehave(t *testing.T) {
	var sk SignKey
	var vk VerifyKey
	if !sk.IsZero() || !vk.IsZero() {
		t.Fatal("zero values not IsZero")
	}
	if sk.Marshal() != nil || vk.Marshal() != nil {
		t.Error("zero keys marshal to non-nil")
	}
	if err := vk.Verify([]byte("m"), make([]byte, SigSize)); !errors.Is(err, ErrBadSig) {
		t.Errorf("zero verify key: err = %v", err)
	}
}

func TestRSASealOpen(t *testing.T) {
	priv := rsaTestKey(t)
	pub := priv.Public()
	msg := bytes.Repeat([]byte("superblock"), 100) // larger than one RSA block
	blob, err := pub.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := priv.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("round trip mismatch")
	}
	// Tampering with the wrapped key or body must fail.
	for _, i := range []int{0, rsaCipherLen + 3, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 1
		if _, err := priv.Open(mut); err == nil {
			t.Errorf("tamper at %d accepted", i)
		}
	}
	if _, err := priv.Open(blob[:10]); !errors.Is(err, ErrShortBlob) {
		t.Errorf("short blob err = %v", err)
	}
}

func TestRSAChunkedRoundTrip(t *testing.T) {
	priv := rsaTestKey(t)
	pub := priv.Public()
	for _, n := range []int{0, 1, rsaChunk, rsaChunk + 1, 3*rsaChunk + 17} {
		msg := bytes.Repeat([]byte{0xA7}, n)
		blob, err := pub.SealChunked(msg)
		if err != nil {
			t.Fatal(err)
		}
		wantChunks := (n + rsaChunk - 1) / rsaChunk
		if wantChunks == 0 {
			wantChunks = 1
		}
		if len(blob) != wantChunks*rsaCipherLen {
			t.Errorf("n=%d: blob len %d, want %d", n, len(blob), wantChunks*rsaCipherLen)
		}
		got, err := priv.OpenChunked(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
	if _, err := priv.OpenChunked([]byte("not a multiple")); !errors.Is(err, ErrShortBlob) {
		t.Errorf("misaligned blob err = %v", err)
	}
}

func TestKeyMarshalRoundTrip(t *testing.T) {
	priv := rsaTestKey(t)
	priv2, err := PrivateKeyFromBytes(priv.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := PublicKeyFromBytes(priv.Public().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := pub2.Seal([]byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := priv2.Open(blob); err != nil || string(got) != "hi" {
		t.Errorf("round-tripped keys broken: %v %q", err, got)
	}
	if priv.Public().Fingerprint() != pub2.Fingerprint() {
		t.Error("fingerprint mismatch after round trip")
	}
	if _, err := PrivateKeyFromBytes([]byte("junk")); err == nil {
		t.Error("junk private key accepted")
	}
	if _, err := PublicKeyFromBytes([]byte("junk")); err == nil {
		t.Error("junk public key accepted")
	}
}

func TestContentHash(t *testing.T) {
	a := ContentHash([]byte("block 1"))
	b := ContentHash([]byte("block 2"))
	if a == b {
		t.Error("hash collision")
	}
	if a != ContentHash([]byte("block 1")) {
		t.Error("hash not deterministic")
	}
}

func BenchmarkSymSeal1K(b *testing.B) {
	k := NewSymKey()
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		k.Seal(msg, testAAD)
	}
}

func BenchmarkSymOpen1K(b *testing.B) {
	k := NewSymKey()
	blob := k.Seal(make([]byte, 1024), testAAD)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, err := k.Open(blob, testAAD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	sk, _ := NewSigningPair()
	msg := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		sk.Sign(msg)
	}
}

func BenchmarkEd25519Verify(b *testing.B) {
	sk, vk := NewSigningPair()
	msg := make([]byte, 256)
	sig := sk.Sign(msg)
	for i := 0; i < b.N; i++ {
		if err := vk.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSAOpenHybrid(b *testing.B) {
	priv := rsaTestKey(b)
	blob, err := priv.Public().Seal(make([]byte, 512))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priv.Open(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSAOpenChunked512(b *testing.B) {
	priv := rsaTestKey(b)
	blob, err := priv.Public().SealChunked(make([]byte, 512))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priv.OpenChunked(blob); err != nil {
			b.Fatal(err)
		}
	}
}
