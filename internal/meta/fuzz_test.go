package meta

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// Deterministic key material for fuzz seeds (never used outside tests).
func fuzzKeys(tb testing.TB) (sharocrypto.SymKey, sharocrypto.SignKey, sharocrypto.VerifyKey) {
	seed := bytes.Repeat([]byte{0x42}, sharocrypto.SymKeySize)
	sym, err := sharocrypto.SymKeyFromBytes(seed)
	if err != nil {
		tb.Fatal(err)
	}
	sk, err := sharocrypto.SignKeyFromBytes(bytes.Repeat([]byte{0x17}, sharocrypto.SignKeySeedSize))
	if err != nil {
		tb.Fatal(err)
	}
	return sym, sk, sk.VerifyKey()
}

func seedMetadata(tb testing.TB) *Metadata {
	sym, sk, vk := fuzzKeys(tb)
	return &Metadata{
		Attr: Attr{
			Inode: 9, Kind: types.KindFile,
			Owner: "alice", Group: "eng", Perm: 0o640,
			Size: 4096, MTime: 1_700_000_000_000_000_000,
			DataGen: 3, Flags: 1,
			ACL: []types.ACLEntry{{User: "bob", Rights: types.TripletRead}},
		},
		Keys: KeySet{DEK: sym, DataSeed: sym.Derive("seed"), DVK: vk, DSK: sk, MSK: sk, MetaSeed: sym.Derive("meta")},
	}
}

// roundTrip re-encodes a successfully decoded value and checks the second
// decode reproduces it exactly — the canonical-encoding property every
// signed codec in this package depends on.
func roundTrip[T any](t *testing.T, v T, encode func(T) []byte, decode func([]byte) (T, error)) {
	re := encode(v)
	v2, err := decode(re)
	if err != nil {
		t.Fatalf("re-decode of canonical encoding failed: %v", err)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Fatalf("round trip diverged:\n  %+v\n  %+v", v, v2)
	}
}

func FuzzDecodeMetadata(f *testing.F) {
	m := seedMetadata(f)
	f.Add(m.Encode())
	f.Add((&Metadata{Attr: Attr{Inode: 1, Kind: types.KindDir}}).Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		roundTrip(t, m, func(x *Metadata) []byte { return x.Encode() }, Decode)
	})
}

func FuzzDecodeTable(f *testing.F) {
	sym, _, vk := fuzzKeys(f)
	tab := &DirTable{Entries: []DirEntry{
		{Name: "a.txt", Inode: 4, Variant: "u/alice", MEK: sym, MVK: vk},
		{Name: "b", Inode: 5, Split: true},
	}}
	f.Add(tab.Encode())
	f.Add((&DirTable{}).Encode())
	f.Add([]byte{0xff, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		tab, err := DecodeTable(b)
		if err != nil {
			return
		}
		roundTrip(t, tab, func(x *DirTable) []byte { return x.Encode() }, DecodeTable)
	})
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add((&Manifest{Size: 1 << 30, BlockSize: 4096, NBlocks: 1 << 18, MTime: 77}).Encode())
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		roundTrip(t, m, func(x *Manifest) []byte { return x.Encode() }, DecodeManifest)
	})
}

func FuzzDecodeSuperblock(f *testing.F) {
	sym, _, vk := fuzzKeys(f)
	f.Add((&Superblock{FSID: "corp", RootInode: 1, RootVariant: "u/alice", RootMEK: sym, RootMVK: vk}).Encode())
	f.Add((&Superblock{FSID: "x", RootInode: 2, RootVariant: "v"}).Encode())
	f.Add([]byte{0x01, 'x'})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSuperblock(b)
		if err != nil {
			return
		}
		roundTrip(t, s, func(x *Superblock) []byte { return x.Encode() }, DecodeSuperblock)
	})
}

func FuzzDecodeSplitPointer(f *testing.F) {
	sym, _, vk := fuzzKeys(f)
	f.Add((&SplitPointer{Inode: 12, Variant: "c/7", MEK: sym, MVK: vk}).Encode())
	f.Add([]byte{0x0c})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeSplitPointer(b)
		if err != nil {
			return
		}
		roundTrip(t, p, func(x *SplitPointer) []byte { return x.Encode() }, DecodeSplitPointer)
	})
}

// FuzzOpenVerified feeds arbitrary bytes — seeded with honest envelopes
// of every signed structure — to the one verify-then-open path. Nothing
// may panic; every failure must be types.ErrTampered; and whatever does
// open must carry the plaintext the key holder sealed for that AAD (the
// keys are fixed, so an envelope from another fuzz worker is honest too;
// anything else that opens would be a forgery).
func FuzzOpenVerified(f *testing.F) {
	sym, sk, vk := fuzzKeys(f)
	tab := &DirTable{Entries: []DirEntry{{Name: "a.txt", Inode: 4, Variant: "u/alice", MEK: sym, MVK: vk}}}
	man := &Manifest{Size: 70000, BlockSize: 65536, NBlocks: 2, MTime: 77}
	aads := [][]byte{MetaAAD(9, "c/3"), TableAAD(9, "c/3"), BlockAAD(9, 3, 1), ManifestAAD(9, 3), TailAAD(9, 3, 1)}
	plains := [][]byte{seedMetadata(f).Encode(), tab.Encode(), bytes.Repeat([]byte{0xab}, 300), man.Encode(), bytes.Repeat([]byte{0xcd}, 30)}
	for i, plain := range plains {
		blob := SealSigned(sym, sk, aads[i], plain)
		f.Add(blob, uint8(i))
		f.Add(blob[:len(blob)-1], uint8(i))
		f.Add(blob, uint8(i+1)) // right blob, wrong AAD
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2))
	f.Fuzz(func(t *testing.T, blob []byte, which uint8) {
		i := int(which) % len(aads)
		pt, err := OpenVerified(sym, vk, aads[i], blob)
		if err != nil {
			if !errors.Is(err, types.ErrTampered) {
				t.Fatalf("failure is not ErrTampered: %v", err)
			}
			return
		}
		if !bytes.Equal(pt, plains[i]) {
			t.Fatalf("a plaintext the writer never sealed opened under AAD %q (%d bytes)", aads[i], len(pt))
		}
	})
}
