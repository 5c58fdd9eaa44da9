package meta

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

func fullMetadata() *Metadata {
	dsk, dvk := sharocrypto.NewSigningPair()
	msk, _ := sharocrypto.NewSigningPair()
	return &Metadata{
		Attr: Attr{
			Inode:   42,
			Kind:    types.KindDir,
			Owner:   "alice",
			Group:   "engineering",
			Perm:    0o751,
			Size:    4096,
			MTime:   1234567890123,
			DataGen: 3,
		},
		Keys: KeySet{
			DEK:      sharocrypto.NewSymKey(),
			DataSeed: sharocrypto.NewSymKey(),
			DVK:      dvk,
			DSK:      dsk,
			MSK:      msk,
			MetaSeed: sharocrypto.NewSymKey(),
		},
	}
}

func metaEqual(a, b *Metadata) bool {
	if !AttrEqual(a.Attr, b.Attr) {
		return false
	}
	if !a.Keys.DEK.Equal(b.Keys.DEK) || !a.Keys.DataSeed.Equal(b.Keys.DataSeed) || !a.Keys.MetaSeed.Equal(b.Keys.MetaSeed) {
		return false
	}
	if !a.Keys.DVK.Equal(b.Keys.DVK) {
		return false
	}
	if !reflect.DeepEqual(a.Keys.DSK.Marshal(), b.Keys.DSK.Marshal()) {
		return false
	}
	return reflect.DeepEqual(a.Keys.MSK.Marshal(), b.Keys.MSK.Marshal())
}

func TestMetadataEncodeDecodeFull(t *testing.T) {
	m := fullMetadata()
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !metaEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMetadataEncodeDecodePartialKeys(t *testing.T) {
	// A read-only CAP view: DEK and DVK only.
	m := fullMetadata()
	m.Keys.DataSeed = sharocrypto.SymKey{}
	m.Keys.DSK = sharocrypto.SignKey{}
	m.Keys.MSK = sharocrypto.SignKey{}
	m.Keys.MetaSeed = sharocrypto.SymKey{}

	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Keys.DEK.IsZero() || got.Keys.DVK.IsZero() {
		t.Error("read keys lost")
	}
	if !got.Keys.DSK.IsZero() || !got.Keys.MSK.IsZero() || !got.Keys.DataSeed.IsZero() || !got.Keys.MetaSeed.IsZero() {
		t.Error("absent keys materialized")
	}
}

func TestMetadataEncodeZeroKeys(t *testing.T) {
	// A zero-permission CAP: attributes visible, no keys at all.
	m := &Metadata{Attr: Attr{Inode: 7, Kind: types.KindFile, Owner: "bob", Perm: 0}}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !AttrEqual(got.Attr, m.Attr) {
		t.Errorf("attr = %+v", got.Attr)
	}
	if !got.Keys.DEK.IsZero() || !got.Keys.DVK.IsZero() || !got.Keys.DSK.IsZero() {
		t.Error("zero CAP leaked keys")
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {0xFF, 0xFF}, make([]byte, 3)} {
		if _, err := Decode(b); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("Decode(%v) err = %v", b, err)
		}
	}
}

func TestAttrPropertyRoundTrip(t *testing.T) {
	f := func(ino uint64, perm uint16, size uint64, mtime int64, gen uint64, owner, group string) bool {
		if mtime < 0 {
			mtime = -mtime
		}
		m := &Metadata{Attr: Attr{
			Inode: types.Inode(ino), Kind: types.KindFile,
			Owner: types.UserID(owner), Group: types.GroupID(group),
			Perm: types.Perm(perm) & types.PermMask, Size: size, MTime: mtime, DataGen: gen,
		}}
		got, err := Decode(m.Encode())
		return err == nil && AttrEqual(got.Attr, m.Attr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDirTableOps(t *testing.T) {
	tbl := &DirTable{}
	_, dvk := sharocrypto.NewSigningPair()
	for _, name := range []string{"zebra", "apple", "mango"} {
		err := tbl.Insert(DirEntry{Name: name, Inode: 1, Variant: "c/3", MEK: sharocrypto.NewSymKey(), MVK: dvk})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Names(); !reflect.DeepEqual(got, []string{"apple", "mango", "zebra"}) {
		t.Errorf("names = %v (want sorted)", got)
	}
	if tbl.Len() != 3 {
		t.Errorf("len = %d", tbl.Len())
	}
	if _, err := tbl.Lookup("mango"); err != nil {
		t.Error(err)
	}
	if _, err := tbl.Lookup("missing"); !errors.Is(err, ErrNoEntry) {
		t.Errorf("missing lookup: %v", err)
	}
	if err := tbl.Insert(DirEntry{Name: "apple"}); !errors.Is(err, ErrDupEntry) {
		t.Errorf("dup insert: %v", err)
	}
	if err := tbl.Remove("apple"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove("apple"); !errors.Is(err, ErrNoEntry) {
		t.Errorf("double remove: %v", err)
	}
	if err := tbl.Replace(DirEntry{Name: "mango", Inode: 99}); err != nil {
		t.Fatal(err)
	}
	e, _ := tbl.Lookup("mango")
	if e.Inode != 99 {
		t.Errorf("replace lost: %+v", e)
	}
	if err := tbl.Replace(DirEntry{Name: "ghost"}); !errors.Is(err, ErrNoEntry) {
		t.Errorf("replace missing: %v", err)
	}
}

func TestDirTableCloneIndependent(t *testing.T) {
	tbl := &DirTable{}
	tbl.Insert(DirEntry{Name: "a", Inode: 1})
	cl := tbl.Clone()
	cl.Insert(DirEntry{Name: "b", Inode: 2})
	if tbl.Len() != 1 || cl.Len() != 2 {
		t.Errorf("clone not independent: %d, %d", tbl.Len(), cl.Len())
	}
}

func TestDirTableEncodeDecode(t *testing.T) {
	_, dvk := sharocrypto.NewSigningPair()
	tbl := &DirTable{}
	tbl.Insert(DirEntry{Name: "file-a", Inode: 1001, Variant: "c/2", MEK: sharocrypto.NewSymKey(), MVK: dvk})
	tbl.Insert(DirEntry{Name: "subdir", Inode: 1002, Variant: "c/4", MEK: sharocrypto.NewSymKey(), MVK: dvk})
	tbl.Insert(DirEntry{Name: "split-child", Inode: 1003, Variant: "", Split: true})

	got, err := DecodeTable(tbl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	a, _ := got.Lookup("file-a")
	orig, _ := tbl.Lookup("file-a")
	if a.Inode != orig.Inode || !a.MEK.Equal(orig.MEK) || !a.MVK.Equal(orig.MVK) || a.Variant != orig.Variant {
		t.Errorf("entry mismatch: %+v vs %+v", a, orig)
	}
	sp, _ := got.Lookup("split-child")
	if !sp.Split || !sp.MEK.IsZero() {
		t.Errorf("split entry mismatch: %+v", sp)
	}
	if _, err := DecodeTable([]byte{0xFF, 0xFF, 0xFF}); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("garbage table: %v", err)
	}
}

// TestDirTableEncodeAllocsFlat: encoding a table allocates per table, not
// per row — a row's MVK is written without a copy of its own, and the
// buffer is sized once — so 32 rows cost what 4 do.
func TestDirTableEncodeAllocsFlat(t *testing.T) {
	_, dvk := sharocrypto.NewSigningPair()
	allocs := func(rows int) float64 {
		tbl := &DirTable{}
		for i := 0; i < rows; i++ {
			tbl.Insert(DirEntry{Name: "entry-" + strconv.Itoa(i), Inode: types.Inode(1000 + i), Variant: "o",
				MEK: sharocrypto.NewSymKey(), MVK: dvk})
		}
		tbl.Insert(DirEntry{Name: "split", Inode: 1, Split: true})
		return testing.AllocsPerRun(100, func() { _ = tbl.Encode() })
	}
	if four, thirtyTwo := allocs(4), allocs(32); four != thirtyTwo {
		t.Errorf("DirTable.Encode allocates %v times for 4 rows, %v for 32", four, thirtyTwo)
	}
}

// manifestEqual compares two manifests field by field (Manifest holds a
// slice and is not ==-comparable).
func manifestEqual(a, b *Manifest) bool {
	return a.Size == b.Size && a.BlockSize == b.BlockSize && a.NBlocks == b.NBlocks &&
		a.MTime == b.MTime && slices.Equal(a.Digests, b.Digests)
}

// digestedManifest is NewManifest with every digest set to a distinct
// non-zero value.
func digestedManifest(size uint64, blockSize uint32, mtime int64) *Manifest {
	m := NewManifest(size, blockSize, mtime)
	for i := range m.Digests {
		m.Digests[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	}
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := digestedManifest(1<<20, 65536, 999)
	enc := m.Encode()
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !manifestEqual(got, m) || len(got.Digests) != 16 {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := DecodeManifest(nil); !errors.Is(err, ErrBadEncoding) {
		t.Errorf("nil manifest: %v", err)
	}
	// The digests are the last 16 × 32 bytes, raw, and nothing else may
	// follow or be missing.
	for name, bad := range map[string][]byte{
		"a digest too few":    enc[:len(enc)-sha256.Size],
		"a digest too many":   append(append([]byte(nil), enc...), make([]byte, sha256.Size)...),
		"one trailing byte":   append(append([]byte(nil), enc...), 0),
		"one byte short":      enc[:len(enc)-1],
		"no digests at all":   (&Manifest{Size: 1 << 20, BlockSize: 65536, NBlocks: 16, MTime: 999}).Encode(),
		"digests of no block": append(NewManifest(0, 64, 1).Encode(), make([]byte, sha256.Size)...),
	} {
		if _, err := DecodeManifest(bad); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestManifestGeometry: NewManifest counts blocks as the layout rule does,
// the rule's methods agree with it at every boundary, and a manifest whose
// numbers do not hold together — readers divide by the block size — does
// not decode.
func TestManifestGeometry(t *testing.T) {
	for _, tc := range []struct {
		size             uint64
		nBlocks, full    uint32
		tailLen, lastLen int
	}{{0, 0, 0, 0, 0}, {1, 1, 0, 1, 1}, {63, 1, 0, 63, 63}, {64, 1, 1, 0, 64}, {65, 2, 1, 1, 1}, {128, 2, 2, 0, 64}, {129, 3, 2, 1, 1}} {
		m := NewManifest(tc.size, 64, 7)
		if m.NBlocks != tc.nBlocks || m.FullBlocks() != tc.full || m.TailLen() != tc.tailLen {
			t.Errorf("size %d: %d blocks, %d full, tail %d", tc.size, m.NBlocks, m.FullBlocks(), m.TailLen())
		}
		for i := uint32(0); i < m.NBlocks; i++ {
			key, aad, n := BlockKey(9, 3, i), BlockAAD(9, 3, i), 64
			if i == m.NBlocks-1 && tc.tailLen > 0 {
				key, aad = TailKey(9), TailAAD(9, 3, i)
			}
			if i == m.NBlocks-1 {
				n = tc.lastLen
			}
			if m.DataKey(9, 3, i) != key || string(m.DataAAD(9, 3, i)) != string(aad) || m.DataLen(i) != n {
				t.Errorf("size %d block %d: %q %q %d", tc.size, i, m.DataKey(9, 3, i), m.DataAAD(9, 3, i), m.DataLen(i))
			}
		}
		if got, err := DecodeManifest(m.Encode()); err != nil || !manifestEqual(got, m) || len(got.Digests) != int(tc.nBlocks) {
			t.Errorf("size %d: round trip %+v, %v", tc.size, got, err)
		}
	}
	for name, bad := range map[string]*Manifest{
		"zero block size":  {Size: 0, BlockSize: 0, NBlocks: 0},
		"a block too few":  {Size: 129, BlockSize: 64, NBlocks: 2},
		"a block too many": {Size: 128, BlockSize: 64, NBlocks: 3},
		"count overflows":  {Size: 1 << 40, BlockSize: 1, NBlocks: 0},
	} {
		if _, err := DecodeManifest(bad.Encode()); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	_, mvk := sharocrypto.NewSigningPair()
	s := &Superblock{FSID: "corp-fs", RootInode: 1, RootVariant: "c/7", RootMEK: sharocrypto.NewSymKey(), RootMVK: mvk}
	got, err := DecodeSuperblock(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.FSID != s.FSID || got.RootInode != s.RootInode || got.RootVariant != s.RootVariant ||
		!got.RootMEK.Equal(s.RootMEK) || !got.RootMVK.Equal(s.RootMVK) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestSplitPointerRoundTrip(t *testing.T) {
	_, mvk := sharocrypto.NewSigningPair()
	p := &SplitPointer{Inode: 77, Variant: "c/1", MEK: sharocrypto.NewSymKey(), MVK: mvk}
	got, err := DecodeSplitPointer(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Inode != p.Inode || got.Variant != p.Variant || !got.MEK.Equal(p.MEK) || !got.MVK.Equal(p.MVK) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestSealSignedRoundTrip(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	aad := []byte("table|7|c/3")
	blob := SealSigned(key, sk, aad, []byte("the table"))
	pt, err := OpenVerified(key, vk, aad, blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "the table" {
		t.Errorf("pt = %q", pt)
	}
}

func TestOpenVerifiedDetectsForgery(t *testing.T) {
	key := sharocrypto.NewSymKey()
	sk, vk := sharocrypto.NewSigningPair()
	aad := []byte("aad")
	blob := SealSigned(key, sk, aad, []byte("content"))

	// Unauthorized writer: correct key (a reader has it!) but wrong DSK.
	forgerSK, _ := sharocrypto.NewSigningPair()
	forged := SealSigned(key, forgerSK, aad, []byte("malicious content"))
	if _, err := OpenVerified(key, vk, aad, forged); !errors.Is(err, types.ErrTampered) {
		t.Errorf("forged write accepted: %v", err)
	}

	// SSP bit-flip.
	mut := append([]byte(nil), blob...)
	mut[len(mut)/2] ^= 1
	if _, err := OpenVerified(key, vk, aad, mut); !errors.Is(err, types.ErrTampered) {
		t.Errorf("tampered blob accepted: %v", err)
	}

	// Wrong AAD (object served from another location).
	if _, err := OpenVerified(key, vk, []byte("other"), blob); !errors.Is(err, types.ErrTampered) {
		t.Errorf("relocated blob accepted: %v", err)
	}

	// Truncated blob.
	if _, err := OpenVerified(key, vk, aad, blob[:4]); !errors.Is(err, types.ErrTampered) {
		t.Errorf("truncated blob accepted: %v", err)
	}
}

func TestMetadataSealOpen(t *testing.T) {
	m := fullMetadata()
	mek := sharocrypto.NewSymKey()
	aad := MetaAAD(m.Attr.Inode, "c/3")
	blob := m.Seal(mek, m.Keys.MSK, aad)
	got, err := OpenMetadata(mek, m.Keys.MSK.VerifyKey(), aad, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !metaEqual(m, got) {
		t.Error("seal/open round trip mismatch")
	}
	// A non-owner cannot forge metadata even knowing the MEK.
	forgerSK, _ := sharocrypto.NewSigningPair()
	forged := m.Seal(mek, forgerSK, aad)
	if _, err := OpenMetadata(mek, m.Keys.MSK.VerifyKey(), aad, forged); !errors.Is(err, types.ErrTampered) {
		t.Errorf("forged metadata accepted: %v", err)
	}
}

func TestSuperblockSealOpen(t *testing.T) {
	priv, err := sharocrypto.NewPrivateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, mvk := sharocrypto.NewSigningPair()
	s := &Superblock{FSID: "fs1", RootInode: 1, RootVariant: "c/7", RootMEK: sharocrypto.NewSymKey(), RootMVK: mvk}
	blob, err := SealSuperblock(s, priv.Public())
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenSuperblock(priv, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.RootMEK.Equal(s.RootMEK) {
		t.Error("root MEK lost")
	}
	// Another principal's key cannot open it.
	other, err := sharocrypto.NewPrivateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSuperblock(other, blob); !errors.Is(err, types.ErrTampered) {
		t.Errorf("foreign superblock opened: %v", err)
	}

	p := &SplitPointer{Inode: 9, Variant: "c/2", MEK: sharocrypto.NewSymKey(), MVK: mvk}
	pblob, err := SealSplitPointer(p, priv.Public())
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := OpenSplitPointer(priv, pblob)
	if err != nil {
		t.Fatal(err)
	}
	if !gotP.MEK.Equal(p.MEK) {
		t.Error("split pointer MEK lost")
	}
}

func TestStorageKeysDistinct(t *testing.T) {
	keys := []string{
		TableKey(1, "c/1"),
		BlockKey(1, 0, 0), BlockKey(1, 0, 1), BlockKey(1, 1, 0),
		ManifestKey(1), TailKey(1), TailKey(2),
		SuperKey("fs", "u:alice"), SuperKey("fs", "u:bob"),
		SplitKey(1, "u:alice"),
	}
	seen := make(map[string]bool)
	for _, k := range keys {
		if seen[k] {
			t.Errorf("storage key collision: %q", k)
		}
		seen[k] = true
	}
	if ManifestKey(1) == BlockKey(1, 0, 0) {
		t.Error("manifest collides with block 0")
	}
}

func TestAADsDistinct(t *testing.T) {
	aads := [][]byte{
		MetaAAD(1, "c/1"), MetaAAD(1, "c/2"), MetaAAD(2, "c/1"),
		TableAAD(1, "c/1"),
		BlockAAD(1, 0, 0), BlockAAD(1, 0, 1), BlockAAD(1, 1, 0),
		ManifestAAD(1, 0), ManifestAAD(1, 1),
		TailAAD(1, 0, 0), TailAAD(1, 0, 1), TailAAD(1, 1, 0), TailAAD(2, 0, 0),
	}
	seen := make(map[string]bool)
	for _, a := range aads {
		if seen[string(a)] {
			t.Errorf("AAD collision: %q", a)
		}
		seen[string(a)] = true
	}
}

func TestBlockPrefixMatchesKeys(t *testing.T) {
	pfx := BlockPrefix(7, 2)
	for _, k := range []string{BlockKey(7, 2, 0), BlockKey(7, 2, 9)} {
		if len(k) < len(pfx) || k[:len(pfx)] != pfx {
			t.Errorf("key %q not under prefix %q", k, pfx)
		}
	}
	if k := BlockKey(7, 3, 0); k[:len(pfx)] == pfx {
		t.Error("other generation under prefix")
	}
	fp := FilePrefix(7)
	if k := BlockKey(7, 3, 0); k[:len(fp)] != fp {
		t.Error("block not under file prefix")
	}
	if k := ManifestKey(7); k[:len(fp)] != fp {
		t.Error("manifest not under file prefix")
	}
	if k := TailKey(7); k[:len(fp)] != fp || strings.HasPrefix(k, pfx) {
		t.Errorf("tail key %q: want it under the file prefix and under no generation's", k)
	}
}
