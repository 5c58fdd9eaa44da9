package cap

import (
	"bytes"
	"errors"
	"testing"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// fuzzDir builds a deterministic directory metadata object with full
// owner keys, so sealing is reproducible across fuzz runs.
func fuzzDir(tb testing.TB) *meta.Metadata {
	seed, err := sharocrypto.SymKeyFromBytes(bytes.Repeat([]byte{0x5a}, sharocrypto.SymKeySize))
	if err != nil {
		tb.Fatal(err)
	}
	sk, err := sharocrypto.SignKeyFromBytes(bytes.Repeat([]byte{0x2b}, sharocrypto.SignKeySeedSize))
	if err != nil {
		tb.Fatal(err)
	}
	return &meta.Metadata{
		Attr: meta.Attr{Inode: 7, Kind: types.KindDir, Owner: "alice", Group: "eng", Perm: 0o750},
		Keys: meta.KeySet{
			DEK: seed.Derive("dek"), DataSeed: seed,
			DVK: sk.VerifyKey(), DSK: sk,
		},
	}
}

// FuzzOpenView exercises the sealed directory-view codec, seeded with
// lone views and members of signed view groups. Random blobs must be
// rejected by authentication; to reach the parser behind it, the
// fuzz input is also sealed under the real table key and fed through —
// so arbitrary bytes flow through every view-kind branch. Accepted views
// must then survive Names/Lookup without panicking.
func FuzzOpenView(f *testing.F) {
	dir := fuzzDir(f)
	const variant = "u/alice"
	tab := &meta.DirTable{Entries: []meta.DirEntry{
		{Name: "doc.txt", Inode: 11, Variant: "u/alice", MEK: dir.Keys.DEK, MVK: dir.Keys.DVK},
		{Name: "src", Inode: 12, Split: true},
	}}
	for _, id := range []ID{
		{Class: DirReadWriteExec, Owner: true},
		{Class: DirRead},
		{Class: DirExecOnly},
	} {
		blob, err := SealTableView(tab, dir, id, variant)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// The same views as members of one signed group of one, three and
	// five (SealTableViews), and the variant's member with its sibling
	// digests cut short, extended or out of order.
	others := []string{"u/bob", "u/carol", "u/dave", "u/erin"}
	for _, n := range []int{1, 3, 5} {
		specs := []ViewSpec{{Table: tab, ID: ID{Class: DirReadExec}, Variant: variant}}
		for _, o := range others[:n-1] {
			specs = append(specs, ViewSpec{Table: tab, ID: ID{Class: DirRead}, Variant: o})
		}
		blobs, err := SealTableViews(dir, specs)
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range blobs {
			f.Add(b)
		}
		own := blobs[0]
		sigAt := len(own) - sharocrypto.SigSize
		framedEnd := sigAt - 32*(n-1)
		withSibs := func(sibs ...[]byte) []byte {
			out := append([]byte(nil), own[:framedEnd]...)
			for _, s := range sibs {
				out = append(out, s...)
			}
			return append(out, own[sigAt:]...)
		}
		f.Add(withSibs(own[framedEnd:sigAt], bytes.Repeat([]byte{0xff}, 32)))
		if n > 1 {
			f.Add(withSibs(own[framedEnd : sigAt-1]))
			f.Add(withSibs(own[framedEnd+32 : sigAt]))
			f.Add(withSibs(own[framedEnd+32:framedEnd+64], own[framedEnd:framedEnd+32], own[framedEnd+64:sigAt]))
		}
	}
	f.Add([]byte("not a sealed view at all"))

	tkey := TableKey(dir, variant)
	dvk := dir.Keys.DVK
	ino := dir.Attr.Inode

	f.Fuzz(func(t *testing.T, b []byte) {
		// Arbitrary blob straight at the authenticated opener: anything
		// not produced by SealSigned under our keys must fail cleanly.
		if v, err := OpenView(variant, tkey, dvk, ino, b); err == nil {
			exerciseView(t, v)
		}

		// Same bytes as view *plaintext*, sealed under the real keys:
		// this drives the parser behind authentication with hostile
		// input, the case a compromised writer key would produce.
		sealed := meta.SealSigned(tkey, dir.Keys.DSK, meta.TableAAD(ino, variant), b)
		v, err := OpenView(variant, tkey, dvk, ino, sealed)
		if err != nil {
			return
		}
		exerciseView(t, v)
	})
}

// exerciseView drives the accessors of an accepted view; none may panic,
// whatever shape the fuzzer talked the parser into.
func exerciseView(t *testing.T, v *View) {
	t.Helper()
	if names, err := v.Names(); err == nil {
		for _, n := range names {
			// Name-only views list without traversing (read permission
			// without exec), so ErrNoKeys is legitimate here; anything
			// else on a listed name is a parser inconsistency.
			if _, err := v.Lookup(n); err != nil && !errors.Is(err, ErrNoKeys) {
				t.Fatalf("listed name %q does not look up: %v", n, err)
			}
		}
	}
	v.Lookup("doc.txt")
	v.Lookup("absent-name")
}
