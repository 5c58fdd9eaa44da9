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
type SymKey struct{ b [SymKeySize]byte }

// NewSymKey generates a fresh random symmetric key.
func NewSymKey() SymKey {
	var k SymKey
	if _, err := io.ReadFull(rand.Reader, k.b[:]); err != nil {
		panic("sharocrypto: entropy unavailable: " + err.Error())
	}
	return k
}

// SymKeyFromBytes builds a key from b, which must be SymKeySize long.
func SymKeyFromBytes(b []byte) (SymKey, error) {
	var k SymKey
	if len(b) != SymKeySize {
		return k, fmt.Errorf("%w: got %d want %d", ErrKeySize, len(b), SymKeySize)
	}
	copy(k.b[:], b)
	return k, nil
}

// Marshal returns the raw key bytes, a copy: the secret itself, for an
// encoder whose output is sealed before it leaves the client.
func (k SymKey) Marshal() []byte { return k.b[:] }

// IsZero reports whether the key is all zero (the "inaccessible" value).
func (k SymKey) IsZero() bool {
	var z SymKey
	return k.Equal(z)
}

// Equal reports whether two symmetric keys are identical, in constant
// time. Always use this (never == or bytes.Equal) to compare key
// material: a short-circuiting comparison leaks the length of the
// matching prefix through timing.
func (k SymKey) Equal(o SymKey) bool {
	return subtle.ConstantTimeCompare(k.b[:], o.b[:]) == 1
}

const gcmNonceSize = 12

// Seal encrypts plaintext under k with AES-128-GCM, binding aad as
// additional authenticated data. The random nonce is prepended.
func (k SymKey) Seal(plaintext, aad []byte) []byte {
	return k.AppendSeal(make([]byte, 0, len(plaintext)+SealOverhead), plaintext, aad)
}

// AppendSeal is Seal into a caller-owned buffer: it appends the
// len(plaintext)+SealOverhead bytes of nonce‖ciphertext‖tag to dst and
// returns the extended slice, so an envelope that frames the sealed
// bytes can be built in one allocation. plaintext must not overlap the
// spare capacity of dst.
func (k SymKey) AppendSeal(dst, plaintext, aad []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, gcmNonceSize)...)
	nonce := dst[n:]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		panic("sharocrypto: entropy unavailable: " + err.Error())
	}
	return k.aead().Seal(dst, nonce, plaintext, aad)
}

// Open decrypts a blob produced by Seal with the same key and aad.
func (k SymKey) Open(blob, aad []byte) ([]byte, error) {
	return k.AppendOpen(nil, blob, aad)
}

// AppendOpen is Open into a caller-owned buffer: it appends the
// plaintext, len(blob)-SealOverhead bytes, to dst and returns the
// extended slice, so a reader that knows where the plaintext goes opens
// it there without an allocation or a copy. dst must not overlap blob. On
// a failed open the spare capacity of dst may have been written.
func (k SymKey) AppendOpen(dst, blob, aad []byte) ([]byte, error) {
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
	block, err := aes.NewCipher(k.b[:])
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
	mac := hmac.New(sha256.New, k.b[:])
	mac.Write([]byte(label))
	sum := mac.Sum(nil)
	var out SymKey
	copy(out.b[:], sum[:SymKeySize])
	return out
}

// NameTag computes a deterministic lookup tag for an entry name under the
// directory's key. Exec-only directory tables are indexed by this tag so a
// client that knows a name can find (and decrypt) its row without being
// able to list the table.
func (k SymKey) NameTag(name string) [32]byte {
	mac := hmac.New(sha256.New, k.b[:])
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
// sign anything.
type SignKey struct{ k *signState }

type signState struct {
	seed [SignKeySeedSize]byte
	once sync.Once
	priv ed25519.PrivateKey // set by once
}

func newSignKey(seed [SignKeySeedSize]byte) SignKey {
	return SignKey{k: &signState{seed: seed}}
}

// expanded returns the Ed25519 private key, deriving it on first use.
func (s SignKey) expanded() ed25519.PrivateKey {
	s.k.once.Do(func() { s.k.priv = ed25519.NewKeyFromSeed(s.k.seed[:]) })
	return s.k.priv
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

// IsZero reports whether the key is unset.
func (v VerifyKey) IsZero() bool { return len(v.pub) == 0 }

// Marshal serializes the signing key as its 32-byte seed.
func (s SignKey) Marshal() []byte {
	if s.IsZero() {
		return nil
	}
	out := make([]byte, SignKeySeedSize)
	copy(out, s.k.seed[:])
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
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, p.key, body.b[:], oaepLabel)
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
