package meta

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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
	// Honest manifests of 0, 1 and 17 digests, one of them short a
	// digest, and a header with no digests behind it.
	for _, size := range []uint64{0, 100, 16*4096 + 1} {
		m := NewManifest(size, 4096, 77)
		for i := range m.Digests {
			m.Digests[i] = sha256.Sum256([]byte{byte(i)})
		}
		f.Add(m.Encode())
	}
	f.Add(NewManifest(2*4096, 4096, 77).Encode()[:4])
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
// of every signed structure, lone and as members of signed groups, their
// truncations and extensions, members with a damaged sibling list, and
// unsigned envelopes a reader holding only the symmetric key could seal —
// to the one verify-then-open path. Nothing may panic; every failure must
// be types.ErrTampered; and whatever does open must carry the plaintext
// the key holder sealed for that AAD (the keys are fixed, so an envelope
// from another fuzz worker is honest too; anything else that opens would
// be a forgery). Every seed is opened once before fuzzing, so the honest
// envelopes are in the verified memo and mutants run against a warm table.
func FuzzOpenVerified(f *testing.F) {
	sym, sk, vk := fuzzKeys(f)
	tab := &DirTable{Entries: []DirEntry{{Name: "a.txt", Inode: 4, Variant: "u/alice", MEK: sym, MVK: vk}}}
	man := NewManifest(70000, 65536, 77)
	aads := [][]byte{MetaAAD(9, "c/3"), TableAAD(9, "c/3"), ManifestAAD(9, 3)}
	plains := [][]byte{seedMetadata(f).Encode(), tab.Encode(), man.Encode()}
	open := func(blob []byte, which uint8) ([]byte, error) {
		i := int(which) % len(aads)
		return OpenVerified(sym, vk, aads[i], blob)
	}
	seed := func(blob []byte, which uint8) {
		_, _ = open(blob, which)
		f.Add(blob, which)
	}
	for i, plain := range plains {
		blob := SealSigned(sym, sk, aads[i], plain)
		seed(blob, uint8(i))
		seed(blob[:len(blob)-1], uint8(i))
		seed(append(append([]byte(nil), blob...), 0), uint8(i))
		seed(blob, uint8(i+1)) // right blob, wrong AAD
		// A reader's forgery: the right AAD, no signature, and a
		// plaintext the writer never sealed.
		forged, _ := SealBlock(sym, aads[i], append([]byte{0xee}, plain...))
		seed(forged, uint8(i))
	}
	// Groups of one, three and five (SealGroup): the three structures
	// plus two more table views, each member carrying its siblings'
	// digests; and members whose sibling list is cut short, extended,
	// out of order or gone.
	for _, n := range []int{1, 3, 5} {
		members := make([]GroupMember, n)
		for j := range members {
			// AADs no seed opens under: a member the fuzzer moves to
			// aads[i] fails its digest.
			members[j] = GroupMember{Key: sym, AAD: TableAAD(9, fmt.Sprintf("x/%d", j)), Plain: []byte("another view")}
			if j < len(aads) {
				members[j].AAD, members[j].Plain = aads[j], plains[j]
			}
		}
		for j, blob := range SealGroup(sk, members) {
			which := uint8(j % len(aads))
			seed(blob, which)
			framed, sibs, sig := siblingsOf(f, blob)
			seed(join(framed, sig), which)
			seed(join(framed, sibs, bytes.Repeat([]byte{0xff}, sha256.Size), sig), which)
			if len(sibs) > 0 {
				seed(join(framed, sibs[:len(sibs)-1], sig), which)
				seed(join(framed, sibs[sha256.Size:], sig), which)
			}
			if len(sibs) >= 2*sha256.Size {
				seed(join(framed, sibs[sha256.Size:2*sha256.Size], sibs[:sha256.Size], sibs[2*sha256.Size:], sig), which)
			}
		}
	}
	seed([]byte{}, uint8(0))
	seed([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2))
	f.Fuzz(func(t *testing.T, blob []byte, which uint8) {
		i := int(which) % len(aads)
		pt, err := open(blob, which)
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

// FuzzOpenBlock feeds arbitrary bytes — seeded with honest blocks and
// tails, their truncations, the right blob under the wrong AAD and under
// the wrong digest — to the digest-then-open path. Nothing may panic;
// every failure must be types.ErrTampered; and whatever opens must be the
// plaintext sealed for that AAD under the digest the manifest named.
// Each seed's own digest is fixed below, so a blob that opens under one
// was sealed by the key holder for that slot (an honest blob from
// another fuzz worker carries a fresh nonce and cannot match it).
func FuzzOpenBlock(f *testing.F) {
	sym, _, _ := fuzzKeys(f)
	aads := [][]byte{BlockAAD(9, 3, 0), BlockAAD(9, 3, 1), TailAAD(9, 3, 2)}
	plains := [][]byte{bytes.Repeat([]byte{0xab}, 300), bytes.Repeat([]byte{0xba}, 300), bytes.Repeat([]byte{0xcd}, 30)}
	blobs := make([][]byte, len(aads))
	digests := make([][sha256.Size]byte, len(aads))
	for i, plain := range plains {
		blobs[i], digests[i] = SealBlock(sym, aads[i], plain)
	}
	for i, blob := range blobs {
		f.Add(blob, uint8(i), uint8(i))
		f.Add(blob[:len(blob)-1], uint8(i), uint8(i))
		f.Add(append(append([]byte(nil), blob...), 0), uint8(i), uint8(i))
		f.Add(blob, uint8(i+1), uint8(i)) // right blob, wrong AAD
		f.Add(blob, uint8(i), uint8(i+1)) // right blob, wrong digest
	}
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, blob []byte, which, digest uint8) {
		i, j := int(which)%len(aads), int(digest)%len(digests)
		pt, err := OpenBlock(nil, sym, aads[i], blob, digests[j])
		if err != nil {
			if !errors.Is(err, types.ErrTampered) {
				t.Fatalf("failure is not ErrTampered: %v", err)
			}
			return
		}
		if i != j || !bytes.Equal(blob, blobs[i]) || !bytes.Equal(pt, plains[i]) {
			t.Fatalf("a block the writer never named opened under AAD %q and digest %d (%d bytes)", aads[i], j, len(pt))
		}
	})
}

// metaFuzzVariants are the sections FuzzOpenMeta's seeds hold: a Scheme-2
// envelope's classes and one ACL grantee, and a Scheme-1 envelope's one
// user copy.
var metaFuzzVariants = []string{"a/carol", "g", "o", "t", "u/alice"}

// metaFuzzSections returns the sections of variants, each copy and MEK
// its own.
func metaFuzzSections(tb testing.TB, variants ...string) []MetaSection {
	sym, _, _ := fuzzKeys(tb)
	secs := make([]MetaSection, len(variants))
	for i, v := range variants {
		m := seedMetadata(tb)
		m.Attr.Owner = types.UserID(v)
		secs[i] = MetaSection{Variant: v, MEK: sym.Derive("mek/" + v), Copy: m}
	}
	return secs
}

// signedBody signs body as an envelope of inode ino with sk: the forgery
// only the MSK holder can make, for shapes SealMeta refuses to build.
func signedBody(ino types.Inode, sk sharocrypto.SignKey, body []byte) []byte {
	m := metaMessage(ino, body)
	return append(append([]byte(nil), body...), sk.Sign(m[:])...)
}

// rawEnvelope lays sections out as an envelope body, labels and sealed
// bytes as given, in the order given.
func rawEnvelope(labels []string, sealed [][]byte) []byte {
	body := binary.AppendUvarint(nil, uint64(len(labels)))
	for i, l := range labels {
		body = binary.AppendUvarint(body, uint64(len(l)))
		body = append(body, l...)
		body = binary.AppendUvarint(body, uint64(len(sealed[i])))
		body = append(body, sealed[i]...)
	}
	return body
}

// FuzzOpenMeta feeds arbitrary bytes — seeded with a Scheme-2 envelope
// (sections o, g, t and a/carol) and a Scheme-1 one (u/alice), their
// truncations and extensions, and envelopes signed by the MSK holder
// with repeated, unsorted, empty and moved sections — to OpenMeta, asking
// for each variant's section. Nothing may panic; what opens must be
// exactly the copy sealed for that variant; every other outcome must be
// types.ErrTampered, except types.ErrNotExist for an envelope whose
// signature holds and that has no section for the variant: an honest
// object without that copy. Every seed is opened once first, so the
// honest envelopes are in the verified memo.
func FuzzOpenMeta(f *testing.F) {
	const ino = 9
	_, sk, vk := fuzzKeys(f)
	all := metaFuzzSections(f, metaFuzzVariants...)
	plains := make(map[string][]byte, len(all))
	meks := make(map[string]sharocrypto.SymKey, len(all))
	for _, sec := range all {
		plains[sec.Variant], meks[sec.Variant] = sec.Copy.Encode(), sec.MEK
	}
	variant := func(which uint8) string { return metaFuzzVariants[int(which)%len(metaFuzzVariants)] }
	open := func(blob []byte, which uint8) (*Metadata, error) {
		v := variant(which)
		return OpenMeta(ino, v, meks[v], vk, blob)
	}
	seed := func(blob []byte) {
		for i := range metaFuzzVariants {
			_, _ = open(blob, uint8(i))
			f.Add(blob, uint8(i))
		}
	}
	for _, secs := range [][]MetaSection{all[:4], all[4:]} {
		blob, err := SealMeta(ino, sk, secs)
		if err != nil {
			f.Fatal(err)
		}
		seed(blob)
		seed(blob[:len(blob)-1])
		seed(append(append([]byte(nil), blob...), 0))
	}
	// The MSK holder's own malformed envelopes: each must be refused for
	// its shape, signature notwithstanding.
	sealed := func(v, under string) []byte {
		return meks[v].Seal(plains[v], MetaAAD(ino, under))
	}
	for _, env := range []struct {
		labels []string
		under  []string // the label each section's AAD names
	}{
		{[]string{"g", "o", "o"}, []string{"g", "o", "o"}}, // repeated
		{[]string{"o", "g", "t"}, []string{"o", "g", "t"}}, // unsorted
		{[]string{"", "o"}, []string{"", "o"}},             // empty label
		{[]string{"g", "o"}, []string{"o", "g"}},           // sections moved between labels
		{nil, nil},                                         // no section
	} {
		ss := make([][]byte, len(env.labels))
		for i, l := range env.labels {
			v := l
			if v == "" {
				v = "o"
			}
			ss[i] = sealed(v, env.under[i])
		}
		seed(signedBody(ino, sk, rawEnvelope(env.labels, ss)))
	}
	seed([]byte{})
	seed([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, blob []byte, which uint8) {
		v := variant(which)
		m, err := open(blob, which)
		switch {
		case err == nil:
			if !bytes.Equal(m.Encode(), plains[v]) {
				t.Fatalf("a copy the owner never sealed opened as %q", v)
			}
		case errors.Is(err, types.ErrNotExist):
			if len(blob) < sharocrypto.SigSize {
				t.Fatalf("no section %q reported for a blob with no signature: %v", v, err)
			}
			body, sig := blob[:len(blob)-sharocrypto.SigSize], blob[len(blob)-sharocrypto.SigSize:]
			msg := metaMessage(ino, body)
			if vk.Verify(msg[:], sig) != nil {
				t.Fatalf("an unsigned envelope reported as an honest one without section %q: %v", v, err)
			}
		case !errors.Is(err, types.ErrTampered):
			t.Fatalf("failure is neither ErrTampered nor an honest absence: %v", err)
		}
	})
}
