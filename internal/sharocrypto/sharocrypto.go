// Package sharocrypto provides the cryptographic substrate of Sharoes.
//
// Key families, following the paper's terminology:
//
//   - DEK/MEK: 128-bit symmetric keys (AES-128-GCM here) used to encrypt
//     data blocks and metadata objects. GCM supplies the confidentiality of
//     the paper's AES plus ciphertext integrity.
//   - DSK/DVK and MSK/MVK: asymmetric signing/verification key pairs that
//     distinguish writers from readers. The paper uses ESIGN for speed; we
//     use Ed25519, the stdlib's fast-signature scheme of the same niche.
//   - User/group keys: 2048-bit RSA pairs (the paper's choice), used for the
//     one-time superblock unseal at mount time, split-point indirection and
//     group key distribution. The PUBLIC baseline additionally uses chunked
//     RSA over whole metadata objects, reproducing the expensive per-chunk
//     private-key operations the paper measures.
//   - Name-derived row keys: HMAC-SHA256 of an entry name under the
//     directory's DEK, implementing the exec-only CAP ("a keyed hash
//     function like MD5 or SHA1" in the paper, modern instance).
package sharocrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
)

// SymKeySize is the size of a symmetric key in bytes (128-bit AES).
const SymKeySize = 16

// Errors returned by this package.
var (
	ErrDecrypt   = errors.New("sharocrypto: decryption failed")
	ErrBadSig    = errors.New("sharocrypto: signature verification failed")
	ErrShortBlob = errors.New("sharocrypto: ciphertext too short")
	ErrKeySize   = errors.New("sharocrypto: bad key size")
)

// SymKey is a 128-bit symmetric encryption key (a DEK or MEK). Its
// bytes are unexported: outside this package a key can be sealed,
// derived and compared, but its raw bytes leave only through Marshal.
// They sit in a secret box (newSecret), so a key held in another
// type's unexported field, where fmt reflects instead of calling
// Format, prints as an address. The zero key (the "inaccessible"
// value) is the nil handle. The zero-length func array makes == on a
// key a build error: it would compare handles, not keys (use Equal).
type SymKey struct {
	p **[SymKeySize]byte
	_ [0]func()
}

// secretBox holds a secret two pointers away from the key that owns
// it. fmt, reflecting into an unexported field, prints a pointer as an
// address, except under a verb it cannot apply to one (%s, %q, ...):
// then it prints what the pointer points at, which here is p, another
// pointer, printed as an address. The box is one allocation.
type secretBox[T any] struct {
	p *T // &v
	v T
}

// newSecret allocates a zero T in a box and returns the handle to it.
func newSecret[T any]() **T {
	b := new(secretBox[T])
	b.p = &b.v
	return &b.p
}

// zeroBytes backs the zero key's reads; nothing writes it.
var zeroBytes [SymKeySize]byte

// symKeyOf copies b, SymKeySize bytes, into a new key. All-zero bytes
// are the zero key, so a key Equal to the zero key is the zero key.
func symKeyOf(b []byte) SymKey {
	if subtle.ConstantTimeCompare(b, zeroBytes[:]) == 1 {
		return SymKey{}
	}
	p := newSecret[[SymKeySize]byte]()
	copy((*p)[:], b)
	return SymKey{p: p}
}

// raw returns the key's bytes for this package's own reads.
func (k SymKey) raw() *[SymKeySize]byte {
	if k.p == nil {
		return &zeroBytes
	}
	return *k.p
}

// NewSymKey generates a fresh random symmetric key.
func NewSymKey() SymKey {
	var b [SymKeySize]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		panic("sharocrypto: entropy unavailable: " + err.Error())
	}
	return symKeyOf(b[:])
}

// SymKeyFromBytes builds a key from a copy of b, which must be
// SymKeySize long.
func SymKeyFromBytes(b []byte) (SymKey, error) {
	if len(b) != SymKeySize {
		return SymKey{}, fmt.Errorf("%w: got %d want %d", ErrKeySize, len(b), SymKeySize)
	}
	return symKeyOf(b), nil
}

// Marshal returns the raw key bytes, a copy: the secret itself, for an
// encoder whose output is sealed before it leaves the client.
// Inlined into an encoder that copies it, the copy stays on the stack.
func (k SymKey) Marshal() []byte {
	b := *k.raw()
	return b[:]
}

// redacted is what a secret key prints as, whatever the verb, and what
// it logs as: its bytes leave this package through Marshal only.
const redacted = "[REDACTED]"

// Format implements fmt.Formatter: every verb prints redacted.
func (k SymKey) Format(f fmt.State, _ rune) { io.WriteString(f, redacted) }

// LogValue implements slog.LogValuer: the key logs as redacted.
func (k SymKey) LogValue() slog.Value { return slog.StringValue(redacted) }

// IsZero reports whether the key is the zero key (the "inaccessible"
// value).
func (k SymKey) IsZero() bool { return k.p == nil }

// Equal reports whether two symmetric keys are identical, in constant
// time. Always use this (never == or bytes.Equal) to compare key
// material: a short-circuiting comparison leaks the length of the
// matching prefix through timing.
func (k SymKey) Equal(o SymKey) bool {
	return subtle.ConstantTimeCompare(k.raw()[:], o.raw()[:]) == 1
}

const gcmNonceSize = 12

// errEmptyAAD is the panic of a seal or open with no AAD: a blob bound
// to no location is one a malicious SSP can swap for any other sealed
// under the same key, so an empty AAD is a bug, not an input.
const errEmptyAAD = "sharocrypto: seal or open with an empty AAD: bind the object context (inode, variant, generation)"

// Seal encrypts plaintext under k with AES-128-GCM, binding aad as
// additional authenticated data. The random nonce is prepended. It
// panics if aad is empty.
func (k SymKey) Seal(plaintext, aad []byte) []byte {
	return k.AppendSeal(make([]byte, 0, len(plaintext)+SealOverhead), plaintext, aad)
}

// AppendSeal is Seal into a caller-owned buffer: it appends the
// len(plaintext)+SealOverhead bytes of nonce‖ciphertext‖tag to dst and
// returns the extended slice, so an envelope that frames the sealed
// bytes can be built in one allocation. plaintext must not overlap the
// spare capacity of dst.
func (k SymKey) AppendSeal(dst, plaintext, aad []byte) []byte {
	if len(aad) == 0 {
		panic(errEmptyAAD)
	}
	n := len(dst)
	dst = append(dst, make([]byte, gcmNonceSize)...)
	nonce := dst[n:]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		panic("sharocrypto: entropy unavailable: " + err.Error())
	}
	return k.aead().Seal(dst, nonce, plaintext, aad)
}

// Open decrypts a blob produced by Seal with the same key and aad. It
// panics if aad is empty.
func (k SymKey) Open(blob, aad []byte) ([]byte, error) {
	return k.AppendOpen(nil, blob, aad)
}

// AppendOpen is Open into a caller-owned buffer: it appends the
// plaintext, len(blob)-SealOverhead bytes, to dst and returns the
// extended slice, so a reader that knows where the plaintext goes opens
// it there without an allocation or a copy. dst must not overlap blob. On
// a failed open the spare capacity of dst may have been written.
func (k SymKey) AppendOpen(dst, blob, aad []byte) ([]byte, error) {
	if len(aad) == 0 {
		panic(errEmptyAAD)
	}
	if len(blob) < gcmNonceSize {
		return nil, ErrShortBlob
	}
	pt, err := k.aead().Open(dst, blob[:gcmNonceSize], blob[gcmNonceSize:], aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// SealOverhead is the ciphertext expansion of Seal in bytes.
const SealOverhead = gcmNonceSize + 16

func (k SymKey) aead() cipher.AEAD {
	block, err := aes.NewCipher(k.raw()[:])
	if err != nil {
		panic("sharocrypto: " + err.Error()) // impossible: key size is fixed
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic("sharocrypto: " + err.Error())
	}
	return aead
}

// Derive deterministically derives a sub-key from k for the given label,
// using HMAC-SHA256. It implements both the exec-only CAP's name-derived
// row keys (label = entry name) and per-variant MEK derivation from an
// object's metadata key seed (label = CAP identifier).
func (k SymKey) Derive(label string) SymKey {
	mac := hmac.New(sha256.New, k.raw()[:])
	mac.Write([]byte(label))
	return symKeyOf(mac.Sum(nil)[:SymKeySize])
}

// NameTag computes a deterministic lookup tag for an entry name under the
// directory's key. Exec-only directory tables are indexed by this tag so a
// client that knows a name can find (and decrypt) its row without being
// able to list the table.
func (k SymKey) NameTag(name string) [32]byte {
	mac := hmac.New(sha256.New, k.raw()[:])
	mac.Write([]byte("tag\x00"))
	mac.Write([]byte(name))
	var tag [32]byte
	copy(tag[:], mac.Sum(nil))
	return tag
}

// SignKey is a signing key (a DSK or MSK). Holding it makes a principal a
// writer (DSK) or owner (MSK) of the associated object.
//
// A SignKey is its 32-byte seed; the Ed25519 private key (a base-point
// multiplication to derive) is expanded on the first Sign or VerifyKey
// and shared by every copy of the value. Metadata decoding rebuilds DSK
// and MSK on every open, reads included, and most of those keys never
// sign anything. The state sits in a secret box, as a SymKey's bytes do.
type SignKey struct{ k **signState }

type signState struct {
	seed [SignKeySeedSize]byte
	once sync.Once
	priv ed25519.PrivateKey // set by once
}

func newSignKey(seed [SignKeySeedSize]byte) SignKey {
	k := newSecret[signState]()
	(*k).seed = seed
	return SignKey{k: k}
}

// expanded returns the Ed25519 private key, deriving it on first use.
func (s SignKey) expanded() ed25519.PrivateKey {
	st := *s.k
	st.once.Do(func() { st.priv = ed25519.NewKeyFromSeed(st.seed[:]) })
	return st.priv
}

// VerifyKey is the matching verification key (a DVK or MVK), distributed to
// every reader so that unauthorized writes — by users or by the SSP itself —
// are detected.
type VerifyKey struct{ pub ed25519.PublicKey }

// SigSize is the size of a signature in bytes.
const SigSize = ed25519.SignatureSize

// SignKeySeedSize is the serialized size of a SignKey.
const SignKeySeedSize = ed25519.SeedSize

// VerifyKeySize is the serialized size of a VerifyKey.
const VerifyKeySize = ed25519.PublicKeySize

// NewSigningPair generates a fresh signing/verification key pair.
func NewSigningPair() (SignKey, VerifyKey) {
	var seed [SignKeySeedSize]byte
	if _, err := io.ReadFull(rand.Reader, seed[:]); err != nil {
		panic("sharocrypto: entropy unavailable: " + err.Error())
	}
	sk := newSignKey(seed)
	return sk, sk.VerifyKey()
}

// Sign signs msg. Per the paper, writers sign the hash of the content they
// upload: Ed25519 hashes msg twice with SHA-512, so callers with bulk
// content pass a digest of it (meta.SealSigned does), not the content.
func (s SignKey) Sign(msg []byte) []byte {
	return ed25519.Sign(s.expanded(), msg)
}

// Verify checks sig over msg.
func (v VerifyKey) Verify(msg, sig []byte) error {
	if len(v.pub) != ed25519.PublicKeySize || !ed25519.Verify(v.pub, msg, sig) {
		return ErrBadSig
	}
	return nil
}

// VerifyKey returns the verification key matching s.
func (s SignKey) VerifyKey() VerifyKey {
	return VerifyKey{pub: s.expanded().Public().(ed25519.PublicKey)}
}

// IsZero reports whether the key is unset (the "inaccessible" value).
func (s SignKey) IsZero() bool { return s.k == nil }

// Format implements fmt.Formatter: every verb prints redacted.
func (s SignKey) Format(f fmt.State, _ rune) { io.WriteString(f, redacted) }

// LogValue implements slog.LogValuer: the key logs as redacted.
func (s SignKey) LogValue() slog.Value { return slog.StringValue(redacted) }

// IsZero reports whether the key is unset.
func (v VerifyKey) IsZero() bool { return len(v.pub) == 0 }

// Marshal serializes the signing key as its 32-byte seed.
func (s SignKey) Marshal() []byte {
	if s.IsZero() {
		return nil
	}
	out := make([]byte, SignKeySeedSize)
	copy(out, (*s.k).seed[:])
	return out
}

// SignKeyFromBytes rebuilds a signing key from its seed.
func SignKeyFromBytes(b []byte) (SignKey, error) {
	if len(b) != SignKeySeedSize {
		return SignKey{}, fmt.Errorf("%w: sign key seed %d", ErrKeySize, len(b))
	}
	return newSignKey([SignKeySeedSize]byte(b)), nil
}

// Marshal serializes the verification key.
func (v VerifyKey) Marshal() []byte {
	if v.IsZero() {
		return nil
	}
	out := make([]byte, VerifyKeySize)
	copy(out, v.pub)
	return out
}

// AppendMarshal appends Marshal's encoding to b (nothing for the zero
// key), without allocating when b has room.
func (v VerifyKey) AppendMarshal(b []byte) []byte { return append(b, v.pub...) }

// VerifyKeyFromBytes rebuilds a verification key.
func VerifyKeyFromBytes(b []byte) (VerifyKey, error) {
	if len(b) != VerifyKeySize {
		return VerifyKey{}, fmt.Errorf("%w: verify key %d", ErrKeySize, len(b))
	}
	pub := make(ed25519.PublicKey, VerifyKeySize)
	copy(pub, b)
	return VerifyKey{pub: pub}, nil
}

// Equal reports whether two verification keys are the same.
func (v VerifyKey) Equal(o VerifyKey) bool { return v.pub.Equal(o.pub) }

// RSABits is the modulus size of user and group keys (the paper's choice,
// from NIST SP 800-78).
const RSABits = 2048

// PrivateKey is a principal's RSA private key — the one key a Sharoes user
// must manage themselves; everything else is distributed in-band.
type PrivateKey struct{ key *rsa.PrivateKey }

// PublicKey is the matching public key, assumed to be known to all users
// (PKI or identity-based encryption, per the paper).
type PublicKey struct{ key *rsa.PublicKey }

// NewPrivateKey generates a fresh RSA-2048 key pair.
func NewPrivateKey() (PrivateKey, error) {
	key, err := rsa.GenerateKey(rand.Reader, RSABits)
	if err != nil {
		return PrivateKey{}, fmt.Errorf("sharocrypto: rsa keygen: %w", err)
	}
	return PrivateKey{key: key}, nil
}

// Public returns the public half.
func (p PrivateKey) Public() PublicKey { return PublicKey{key: &p.key.PublicKey} }

// IsZero reports whether the key is unset.
func (p PrivateKey) IsZero() bool { return p.key == nil }

// Format implements fmt.Formatter: every verb prints redacted.
func (p PrivateKey) Format(f fmt.State, _ rune) { io.WriteString(f, redacted) }

// LogValue implements slog.LogValuer: the key logs as redacted.
func (p PrivateKey) LogValue() slog.Value { return slog.StringValue(redacted) }

// IsZero reports whether the key is unset.
func (p PublicKey) IsZero() bool { return p.key == nil }

// Marshal serializes the private key (PKCS#1).
func (p PrivateKey) Marshal() []byte { return x509.MarshalPKCS1PrivateKey(p.key) }

// PrivateKeyFromBytes parses a key serialized by Marshal.
func PrivateKeyFromBytes(b []byte) (PrivateKey, error) {
	key, err := x509.ParsePKCS1PrivateKey(b)
	if err != nil {
		return PrivateKey{}, fmt.Errorf("sharocrypto: parse private key: %w", err)
	}
	return PrivateKey{key: key}, nil
}

// Marshal serializes the public key (PKCS#1).
func (p PublicKey) Marshal() []byte { return x509.MarshalPKCS1PublicKey(p.key) }

// PublicKeyFromBytes parses a key serialized by Marshal.
func PublicKeyFromBytes(b []byte) (PublicKey, error) {
	key, err := x509.ParsePKCS1PublicKey(b)
	if err != nil {
		return PublicKey{}, fmt.Errorf("sharocrypto: parse public key: %w", err)
	}
	return PublicKey{key: key}, nil
}

// Fingerprint returns a short stable identifier for the public key.
func (p PublicKey) Fingerprint() [32]byte { return sha256.Sum256(p.Marshal()) }

var oaepLabel = []byte("sharoes-v1")

// rsaChunk is the maximum OAEP plaintext per RSA-2048 operation.
const rsaChunk = RSABits/8 - 2*sha256.Size - 2 // 190 bytes

// rsaCipherLen is the ciphertext length of one RSA-2048 operation.
const rsaCipherLen = RSABits / 8

// Seal hybrid-encrypts msg to the public key: a fresh symmetric key is
// RSA-OAEP-wrapped and the body sealed under it. Exactly one public-key
// operation to seal and one private-key operation to open — this is the
// cost profile of the superblock unseal at mount time and of the PUB-OPT
// baseline's metadata key wrapping.
func (p PublicKey) Seal(msg []byte) ([]byte, error) {
	body := NewSymKey()
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, p.key, body.raw()[:], oaepLabel)
	if err != nil {
		return nil, fmt.Errorf("sharocrypto: rsa seal: %w", err)
	}
	out := make([]byte, 0, len(wrapped)+len(msg)+SealOverhead)
	out = append(out, wrapped...)
	out = append(out, body.Seal(msg, oaepLabel)...)
	return out, nil
}

// privateOps counts RSA private-key operations (PrivateOps).
var privateOps atomic.Int64

// PrivateOps returns the process-wide number of RSA private-key
// operations made so far: one per Open, one per chunk of OpenChunked.
func PrivateOps() int64 { return privateOps.Load() }

// Open decrypts a blob produced by PublicKey.Seal.
func (p PrivateKey) Open(blob []byte) ([]byte, error) {
	if len(blob) < rsaCipherLen {
		return nil, ErrShortBlob
	}
	privateOps.Add(1)
	keyBytes, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, p.key, blob[:rsaCipherLen], oaepLabel)
	if err != nil {
		return nil, ErrDecrypt
	}
	body, err := SymKeyFromBytes(keyBytes)
	if err != nil {
		return nil, ErrDecrypt
	}
	return body.Open(blob[rsaCipherLen:], oaepLabel)
}

// SealChunked encrypts msg entirely with RSA-OAEP, one public-key operation
// per 190-byte chunk. This is deliberately the expensive construction: it
// reproduces the PUBLIC baseline of the paper (SiRiUS/SNAD-style whole-
// metadata public-key encryption), whose per-chunk private-key decryptions
// make the Create-and-List "list" phase prohibitively slow.
func (p PublicKey) SealChunked(msg []byte) ([]byte, error) {
	n := (len(msg) + rsaChunk - 1) / rsaChunk
	if n == 0 {
		n = 1
	}
	out := make([]byte, 0, n*rsaCipherLen)
	for i := 0; i < n; i++ {
		lo := i * rsaChunk
		hi := lo + rsaChunk
		if hi > len(msg) {
			hi = len(msg)
		}
		ct, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, p.key, msg[lo:hi], oaepLabel)
		if err != nil {
			return nil, fmt.Errorf("sharocrypto: rsa chunk seal: %w", err)
		}
		out = append(out, ct...)
	}
	return out, nil
}

// OpenChunked decrypts a blob produced by SealChunked, one private-key
// operation per chunk.
func (p PrivateKey) OpenChunked(blob []byte) ([]byte, error) {
	if len(blob) == 0 || len(blob)%rsaCipherLen != 0 {
		return nil, ErrShortBlob
	}
	out := make([]byte, 0, len(blob)/rsaCipherLen*rsaChunk)
	for off := 0; off < len(blob); off += rsaCipherLen {
		privateOps.Add(1)
		pt, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, p.key, blob[off:off+rsaCipherLen], oaepLabel)
		if err != nil {
			return nil, ErrDecrypt
		}
		out = append(out, pt...)
	}
	return out, nil
}

// ContentHash returns the SHA-256 digest of content; writers sign this hash.
func ContentHash(content []byte) [32]byte { return sha256.Sum256(content) }
