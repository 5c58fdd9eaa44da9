package cap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// testMetaBundle bundles a full metadata object and its key material.
type testMetaBundle struct {
	full *meta.Metadata
}

func newTestMeta(t testing.TB, kind types.ObjKind, perm string) *testMetaBundle {
	t.Helper()
	p, err := types.ParsePerm(perm)
	if err != nil {
		t.Fatal(err)
	}
	dsk, dvk := sharocrypto.NewSigningPair()
	msk, _ := sharocrypto.NewSigningPair()
	return &testMetaBundle{full: &meta.Metadata{
		Attr: meta.Attr{Inode: 100, Kind: kind, Owner: "alice", Group: "eng", Perm: p, MTime: 1},
		Keys: meta.KeySet{
			DEK:      sharocrypto.NewSymKey(),
			DataSeed: sharocrypto.NewSymKey(),
			DVK:      dvk,
			DSK:      dsk,
			MSK:      msk,
			MetaSeed: sharocrypto.NewSymKey(),
		},
	}}
}

func testTable(t testing.TB) *meta.DirTable {
	t.Helper()
	_, mvk := sharocrypto.NewSigningPair()
	tbl := &meta.DirTable{}
	entries := []meta.DirEntry{
		{Name: "report.txt", Inode: 201, Variant: "c7", MEK: sharocrypto.NewSymKey(), MVK: mvk},
		{Name: "src", Inode: 202, Variant: "c3", MEK: sharocrypto.NewSymKey(), MVK: mvk},
		{Name: "secret-plan.doc", Inode: 203, Variant: "c7", MEK: sharocrypto.NewSymKey(), MVK: mvk},
	}
	for _, e := range entries {
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func sealAndOpen(t *testing.T, tbl *meta.DirTable, b *testMetaBundle, id ID) *View {
	t.Helper()
	blob, err := SealTableView(tbl, b.full, id, id.Variant())
	if err != nil {
		t.Fatal(err)
	}
	filtered := Filter(b.full, id, id.Variant())
	v, err := OpenView(id.Variant(), filtered.Keys.DEK, filtered.Keys.DVK, b.full.Attr.Inode, blob)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestReadViewNamesOnly(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)
	v := sealAndOpen(t, tbl, b, ID{Class: DirRead})

	names, err := v.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"report.txt", "secret-plan.doc", "src"}) {
		t.Errorf("names = %v", names)
	}
	// Read permission allows "ls" but not "cd": lookup must fail.
	if _, err := v.Lookup("src"); !errors.Is(err, ErrNoKeys) {
		t.Errorf("read-view lookup: %v", err)
	}
	if _, err := v.Full(); !errors.Is(err, ErrNoKeys) {
		t.Errorf("read-view full: %v", err)
	}
	if v.Len() != 3 {
		t.Errorf("len = %d", v.Len())
	}
}

func TestReadExecViewFullAccess(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)
	v := sealAndOpen(t, tbl, b, ID{Class: DirReadExec})

	names, err := v.Names()
	if err != nil || len(names) != 3 {
		t.Fatalf("names = %v, %v", names, err)
	}
	e, err := v.Lookup("src")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tbl.Lookup("src")
	if e.Inode != want.Inode || !e.MEK.Equal(want.MEK) || !e.MVK.Equal(want.MVK) || e.Variant != want.Variant {
		t.Errorf("entry = %+v, want %+v", e, want)
	}
	if _, err := v.Full(); err != nil {
		t.Errorf("rx view full: %v", err)
	}
}

func TestExecOnlyView(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)
	v := sealAndOpen(t, tbl, b, ID{Class: DirExecOnly})

	// "ls" must fail.
	if _, err := v.Names(); !errors.Is(err, ErrNoKeys) {
		t.Errorf("exec-only names: %v", err)
	}
	// "cd known-name" must work and return the right keys.
	e, err := v.Lookup("secret-plan.doc")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tbl.Lookup("secret-plan.doc")
	if e.Inode != want.Inode || !e.MEK.Equal(want.MEK) || !e.MVK.Equal(want.MVK) {
		t.Errorf("entry = %+v, want %+v", e, want)
	}
	// Unknown names are indistinguishable from absent ones.
	if _, err := v.Lookup("no-such-name"); !errors.Is(err, meta.ErrNoEntry) {
		t.Errorf("unknown name: %v", err)
	}
	if v.Len() != 3 {
		t.Errorf("len = %d", v.Len())
	}
}

// TestExecOnlyViewHidesNames verifies the sealed exec-only view plaintext
// does not contain entry names: the name column is cryptographically
// removed, not just elided from the API.
func TestExecOnlyViewHidesNames(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)
	id := ID{Class: DirExecOnly}
	blob, err := SealTableView(tbl, b.full, id, id.Variant())
	if err != nil {
		t.Fatal(err)
	}
	// Decrypt the outer envelope the way a legitimate exec-only holder
	// would, and scan the plaintext for names.
	filtered := Filter(b.full, id, id.Variant())
	plain, err := meta.OpenVerified(filtered.Keys.DEK, filtered.Keys.DVK,
		meta.TableAAD(b.full.Attr.Inode, id.Variant()), blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"report.txt", "src", "secret-plan.doc"} {
		if bytes.Contains(plain, []byte(name)) {
			t.Errorf("exec-only view plaintext contains name %q", name)
		}
	}
}

func TestViewVariantIsolation(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)

	// Seal the full (rx) view; try to open it with the read variant's key.
	rxID := ID{Class: DirReadExec}
	blob, err := SealTableView(tbl, b.full, rxID, rxID.Variant())
	if err != nil {
		t.Fatal(err)
	}
	readKeys := Filter(b.full, ID{Class: DirRead}, ID{Class: DirRead}.Variant())
	if _, err := OpenView(rxID.Variant(), readKeys.Keys.DEK, readKeys.Keys.DVK, b.full.Attr.Inode, blob); !errors.Is(err, types.ErrTampered) {
		t.Errorf("read-CAP key opened the rx view: %v", err)
	}
}

func TestViewTamperDetection(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)
	id := ID{Class: DirReadExec}
	blob, err := SealTableView(tbl, b.full, id, id.Variant())
	if err != nil {
		t.Fatal(err)
	}
	filtered := Filter(b.full, id, id.Variant())
	mut := append([]byte(nil), blob...)
	mut[len(mut)/3] ^= 0x10
	if _, err := OpenView(id.Variant(), filtered.Keys.DEK, filtered.Keys.DVK, b.full.Attr.Inode, mut); !errors.Is(err, types.ErrTampered) {
		t.Errorf("tampered view accepted: %v", err)
	}
	// Serving the view under the wrong inode (SSP swap) must fail.
	if _, err := OpenView(id.Variant(), filtered.Keys.DEK, filtered.Keys.DVK, b.full.Attr.Inode+1, blob); !errors.Is(err, types.ErrTampered) {
		t.Errorf("relocated view accepted: %v", err)
	}
}

func TestViewForgeryBySSPRejected(t *testing.T) {
	// A malicious SSP (or a reader) knows the table key of a read-only
	// variant but not the DSK; a view it fabricates must not verify.
	b := fullDirMeta(t)
	tbl := testTable(t)
	id := ID{Class: DirRead}
	filtered := Filter(b.full, id, id.Variant())

	forgerDSK, _ := sharocrypto.NewSigningPair()
	aad := meta.TableAAD(b.full.Attr.Inode, id.Variant())
	forged := meta.SealSigned(filtered.Keys.DEK, forgerDSK, aad, encodeNamesView(tbl, RowsKey(b.full, id.Variant()), aad))
	if _, err := OpenView(id.Variant(), filtered.Keys.DEK, filtered.Keys.DVK, b.full.Attr.Inode, forged); !errors.Is(err, types.ErrTampered) {
		t.Errorf("forged view accepted: %v", err)
	}
}

func TestSplitEntriesInViews(t *testing.T) {
	b := fullDirMeta(t)
	tbl := &meta.DirTable{}
	tbl.Insert(meta.DirEntry{Name: "diverged", Inode: 300, Split: true})

	for _, id := range []ID{{Class: DirReadExec}, {Class: DirExecOnly}} {
		v := sealAndOpen(t, tbl, b, id)
		e, err := v.Lookup("diverged")
		if err != nil {
			t.Fatalf("%v: %v", id.Class, err)
		}
		if !e.Split || e.Inode != 300 || !e.MEK.IsZero() {
			t.Errorf("%v: split entry = %+v", id.Class, e)
		}
	}
}

func TestOwnerViewAlwaysFull(t *testing.T) {
	// Even an owner whose own triplet is exec-only keeps the full view so
	// chmod can rebuild everything.
	b := newTestMeta(t, types.KindDir, "111")
	tbl := testTable(t)
	id := ID{Class: DirExecOnly, Owner: true}
	v := sealAndOpen(t, tbl, b, id)
	if _, err := v.Full(); err != nil {
		t.Errorf("owner view not full: %v", err)
	}
}

func TestSealTableViewRequiresWriterKeys(t *testing.T) {
	b := fullDirMeta(t)
	crippled := *b.full
	crippled.Keys.DataSeed = sharocrypto.SymKey{}
	if _, err := SealTableView(testTable(t), &crippled, ID{Class: DirRead}, "c2"); !errors.Is(err, ErrNoKeys) {
		t.Errorf("seal without seed: %v", err)
	}
	crippled = *b.full
	crippled.Keys.DSK = sharocrypto.SignKey{}
	if _, err := SealTableView(testTable(t), &crippled, ID{Class: DirRead}, "c2"); !errors.Is(err, ErrNoKeys) {
		t.Errorf("seal without DSK: %v", err)
	}
}

func TestEmptyTableViews(t *testing.T) {
	b := fullDirMeta(t)
	empty := &meta.DirTable{}
	for _, id := range []ID{{Class: DirRead}, {Class: DirReadExec}, {Class: DirExecOnly}} {
		v := sealAndOpen(t, empty, b, id)
		if v.Len() != 0 {
			t.Errorf("%v: empty table len = %d", id.Class, v.Len())
		}
	}
}

func TestOpenViewGarbage(t *testing.T) {
	b := fullDirMeta(t)
	id := ID{Class: DirReadExec}
	filtered := Filter(b.full, id, id.Variant())
	if _, err := OpenView(id.Variant(), filtered.Keys.DEK, filtered.Keys.DVK, b.full.Attr.Inode, []byte("junk")); err == nil {
		t.Error("garbage view accepted")
	}
}

func BenchmarkSealFullView100(b *testing.B) {
	bundle := newTestMeta(b, types.KindDir, "755")
	_, mvk := sharocrypto.NewSigningPair()
	tbl := &meta.DirTable{}
	for i := 0; i < 100; i++ {
		tbl.Insert(meta.DirEntry{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Inode: types.Inode(i),
			Variant: "c7", MEK: sharocrypto.NewSymKey(), MVK: mvk})
	}
	id := ID{Class: DirReadExec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SealTableView(tbl, bundle.full, id, id.Variant()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealExecView100(b *testing.B) {
	bundle := newTestMeta(b, types.KindDir, "711")
	_, mvk := sharocrypto.NewSigningPair()
	tbl := &meta.DirTable{}
	for i := 0; i < 100; i++ {
		tbl.Insert(meta.DirEntry{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Inode: types.Inode(i),
			Variant: "c7", MEK: sharocrypto.NewSymKey(), MVK: mvk})
	}
	id := ID{Class: DirExecOnly}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SealTableView(tbl, bundle.full, id, id.Variant()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmptyView(t *testing.T) {
	for _, id := range []ID{
		{Class: DirReadWriteExec}, {Class: DirRead}, {Class: DirExecOnly},
		{Class: DirZero, Owner: true},
	} {
		v := EmptyView(id)
		if v.Len() != 0 {
			t.Errorf("%+v: len = %d", id, v.Len())
		}
	}
	if _, err := EmptyView(ID{Class: DirRead}).Names(); err != nil {
		t.Errorf("empty names view: %v", err)
	}
	if _, err := EmptyView(ID{Class: DirExecOnly}).Lookup("x"); !errors.Is(err, meta.ErrNoEntry) {
		t.Errorf("empty exec view lookup: %v", err)
	}
}

func TestReconstruct(t *testing.T) {
	b := fullDirMeta(t)
	tbl := testTable(t)
	names := tbl.Names()

	// Full view reconstructs exactly.
	vFull := sealAndOpen(t, tbl, b, ID{Class: DirReadExec})
	got, err := vFull.Reconstruct(nil, sharocrypto.SymKey{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("full reconstruct len = %d", got.Len())
	}
	e, _ := got.Lookup("src")
	want, _ := tbl.Lookup("src")
	if !e.MEK.Equal(want.MEK) {
		t.Error("full reconstruct lost keys")
	}
	// Mutating the reconstruction must not affect the view.
	got.Remove("src")
	if vFull.Len() != 3 {
		t.Error("reconstruct aliased view")
	}

	// A names view's rows open for a writer, under the rows key, and for
	// nobody holding only the view's table key.
	nid := ID{Class: DirRead}
	vNames := sealAndOpen(t, tbl, b, nid)
	if _, err := vNames.Reconstruct(nil, TableKey(b.full, nid.Variant())); !errors.Is(err, types.ErrTampered) {
		t.Errorf("names reconstruct under the reader's key: %v", err)
	}
	got, err = vNames.Reconstruct(nil, RowsKey(b.full, nid.Variant()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("names reconstruct len = %d", got.Len())
	}
	e, _ = got.Lookup("src")
	if !e.MEK.Equal(want.MEK) {
		t.Error("names reconstruct lost keys")
	}

	// Exec view reassembles from the name list.
	vExec := sealAndOpen(t, tbl, b, ID{Class: DirExecOnly})
	got, err = vExec.Reconstruct(names, sharocrypto.SymKey{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ = got.Lookup("secret-plan.doc")
	want, _ = tbl.Lookup("secret-plan.doc")
	if e.Inode != want.Inode || !e.MEK.Equal(want.MEK) {
		t.Error("exec reconstruct mismatch")
	}
	// A bogus name surfaces skew.
	if _, err := vExec.Reconstruct([]string{"ghost"}, sharocrypto.SymKey{}); err == nil {
		t.Error("reconstruct with unknown name succeeded")
	}
}

// TestViewPropertyRoundTrip: random tables survive every view shape.
func TestViewPropertyRoundTrip(t *testing.T) {
	b := fullDirMeta(t)
	_, mvk := sharocrypto.NewSigningPair()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tbl := &meta.DirTable{}
		n := rng.Intn(20)
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("n%c%d", 'a'+rng.Intn(26), rng.Intn(1000))
			if _, err := tbl.Lookup(name); err == nil {
				continue
			}
			e := meta.DirEntry{Name: name, Inode: types.Inode(rng.Uint64() | 2), Split: rng.Intn(5) == 0}
			if !e.Split {
				// Split rows carry no keys by design; direct rows do.
				e.Variant, e.MEK, e.MVK = "o", sharocrypto.NewSymKey(), mvk
			}
			tbl.Insert(e)
			names = append(names, name)
		}
		for _, id := range []ID{{Class: DirReadExec}, {Class: DirExecOnly}, {Class: DirRead}} {
			v := sealAndOpen(t, tbl, b, id)
			if v.Len() != tbl.Len() {
				t.Fatalf("trial %d %v: len %d != %d", trial, id.Class, v.Len(), tbl.Len())
			}
			if id.Class == DirRead {
				continue
			}
			for _, name := range names {
				got, err := v.Lookup(name)
				if err != nil {
					t.Fatalf("trial %d %v lookup %q: %v", trial, id.Class, name, err)
				}
				want, _ := tbl.Lookup(name)
				if got.Inode != want.Inode || !got.MEK.Equal(want.MEK) || got.Split != want.Split {
					t.Fatalf("trial %d %v: entry mismatch for %q", trial, id.Class, name)
				}
			}
		}
	}
}
