package cap

import (
	"errors"
	"testing"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

func tr(s string) types.Triplet {
	var t types.Triplet
	if s[0] == 'r' {
		t |= types.TripletRead
	}
	if s[1] == 'w' {
		t |= types.TripletWrite
	}
	if s[2] == 'x' {
		t |= types.TripletExec
	}
	return t
}

// TestForDirMapping checks every directory triplet against Figure 4.
func TestForDirMapping(t *testing.T) {
	cases := []struct {
		trip    string
		want    Class
		wantErr bool
	}{
		{"---", DirZero, false},
		{"r--", DirRead, false},
		{"rw-", DirRead, false}, // same CAP as read: write inert without exec
		{"r-x", DirReadExec, false},
		{"rwx", DirReadWriteExec, false},
		{"-w-", DirZero, false}, // same CAP as zero
		{"--x", DirExecOnly, false},
		{"-wx", DirZero, true}, // unsupported, fails closed
	}
	for _, c := range cases {
		got, err := ForDir(tr(c.trip))
		if got != c.want {
			t.Errorf("ForDir(%s) = %v, want %v", c.trip, got, c.want)
		}
		if (err != nil) != c.wantErr {
			t.Errorf("ForDir(%s) err = %v", c.trip, err)
		}
		if err != nil && !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("ForDir(%s) err not ErrUnsupportedPerm: %v", c.trip, err)
		}
	}
}

// TestForFileMapping checks every file triplet against Figure 5.
func TestForFileMapping(t *testing.T) {
	cases := []struct {
		trip    string
		want    Class
		wantErr bool
	}{
		{"---", FileZero, false},
		{"r--", FileRead, false},
		{"r-x", FileRead, false}, // same CAP as read
		{"rw-", FileReadWrite, false},
		{"rwx", FileReadWrite, false}, // same CAP as read-write
		{"-w-", FileZero, true},       // symmetric DEK: writers can read
		{"-wx", FileZero, true},
		{"--x", FileZero, true}, // execution implies reading plaintext
	}
	for _, c := range cases {
		got, err := ForFile(tr(c.trip))
		if got != c.want {
			t.Errorf("ForFile(%s) = %v, want %v", c.trip, got, c.want)
		}
		if (err != nil) != c.wantErr {
			t.Errorf("ForFile(%s) err = %v", c.trip, err)
		}
	}
}

func TestValidatePerm(t *testing.T) {
	ok := []struct {
		kind types.ObjKind
		perm string
	}{
		{types.KindDir, "755"}, {types.KindDir, "751"}, {types.KindDir, "700"},
		{types.KindDir, "711"}, {types.KindDir, "444"}, {types.KindDir, "000"},
		{types.KindFile, "644"}, {types.KindFile, "600"}, {types.KindFile, "755"},
		{types.KindFile, "000"}, {types.KindFile, "440"},
	}
	for _, c := range ok {
		p, _ := types.ParsePerm(c.perm)
		if err := ValidatePerm(c.kind, p); err != nil {
			t.Errorf("ValidatePerm(%v, %s) = %v, want nil", c.kind, c.perm, err)
		}
	}
	bad := []struct {
		kind types.ObjKind
		perm string
	}{
		{types.KindDir, "753"},  // other = -wx
		{types.KindDir, "735"},  // group = -wx
		{types.KindFile, "642"}, // other = -w-
		{types.KindFile, "641"}, // other = --x
		{types.KindFile, "264"}, // owner = -w-
	}
	for _, c := range bad {
		p, _ := types.ParsePerm(c.perm)
		if err := ValidatePerm(c.kind, p); !errors.Is(err, types.ErrUnsupportedPerm) {
			t.Errorf("ValidatePerm(%v, %s) = %v, want ErrUnsupportedPerm", c.kind, c.perm, err)
		}
	}
}

func TestCapabilityQueries(t *testing.T) {
	if !DirRead.CanList() || DirRead.CanTraverse() || DirRead.CanModifyDir() {
		t.Error("DirRead queries wrong")
	}
	if !DirReadExec.CanList() || !DirReadExec.CanTraverse() || DirReadExec.CanModifyDir() {
		t.Error("DirReadExec queries wrong")
	}
	if !DirReadWriteExec.CanList() || !DirReadWriteExec.CanTraverse() || !DirReadWriteExec.CanModifyDir() {
		t.Error("DirReadWriteExec queries wrong")
	}
	if DirExecOnly.CanList() || !DirExecOnly.CanTraverse() || DirExecOnly.CanModifyDir() {
		t.Error("DirExecOnly queries wrong")
	}
	if DirZero.CanList() || DirZero.CanTraverse() {
		t.Error("DirZero queries wrong")
	}
	if !FileRead.CanReadData() || FileRead.CanWriteData() {
		t.Error("FileRead queries wrong")
	}
	if !FileReadWrite.CanReadData() || !FileReadWrite.CanWriteData() {
		t.Error("FileReadWrite queries wrong")
	}
	if FileZero.CanReadData() || FileZero.CanWriteData() {
		t.Error("FileZero queries wrong")
	}
	for _, c := range []Class{DirZero, DirRead, DirReadExec, DirReadWriteExec, DirExecOnly} {
		if !c.IsDir() {
			t.Errorf("%v.IsDir() = false", c)
		}
	}
	for _, c := range []Class{FileZero, FileRead, FileReadWrite} {
		if c.IsDir() {
			t.Errorf("%v.IsDir() = true", c)
		}
	}
}

func TestVariantRoundTrip(t *testing.T) {
	seen := make(map[string]bool)
	for _, class := range []Class{DirZero, DirRead, DirReadExec, DirReadWriteExec, DirExecOnly, FileZero, FileRead, FileReadWrite} {
		for _, owner := range []bool{false, true} {
			id := ID{Class: class, Owner: owner}
			v := id.Variant()
			if seen[v] {
				t.Errorf("variant collision: %q", v)
			}
			seen[v] = true
			got, err := ParseVariant(v)
			if err != nil {
				t.Fatalf("ParseVariant(%q): %v", v, err)
			}
			if got != id {
				t.Errorf("ParseVariant(%q) = %+v, want %+v", v, got, id)
			}
		}
	}
	for _, bad := range []string{"", "c", "x3", "c99", "c0", "cxo"} {
		if _, err := ParseVariant(bad); err == nil {
			t.Errorf("ParseVariant(%q) succeeded", bad)
		}
	}
}

func TestIDForAndIDs(t *testing.T) {
	p, _ := types.ParsePerm("751") // owner rwx, group r-x, other --x
	if id := IDFor(types.KindDir, p, types.ClassOwner); id.Class != DirReadWriteExec || !id.Owner {
		t.Errorf("owner id = %+v", id)
	}
	if id := IDFor(types.KindDir, p, types.ClassGroup); id.Class != DirReadExec || id.Owner {
		t.Errorf("group id = %+v", id)
	}
	if id := IDFor(types.KindDir, p, types.ClassOther); id.Class != DirExecOnly {
		t.Errorf("other id = %+v", id)
	}
	ids := IDs(types.KindDir, p)
	if len(ids) != 3 {
		t.Errorf("IDs(751) = %v", ids)
	}

	// Group and other sharing a triplet share a variant: that is the
	// Scheme-2 saving (≤ number of distinct CAPs, not number of users).
	p2, _ := types.ParsePerm("755")
	ids2 := IDs(types.KindDir, p2)
	if len(ids2) != 2 {
		t.Errorf("IDs(755) = %v, want 2 variants (owner + shared r-x)", ids2)
	}

	// Owner variant is distinct even when triplets all match.
	p3, _ := types.ParsePerm("777")
	ids3 := IDs(types.KindDir, p3)
	if len(ids3) != 2 {
		t.Errorf("IDs(777) = %v", ids3)
	}
	if !ids3[0].Owner || ids3[1].Owner {
		t.Errorf("IDs(777) owner placement: %v", ids3)
	}
}

func fullDirMeta(t *testing.T) *testMetaBundle {
	t.Helper()
	return newTestMeta(t, types.KindDir, "755")
}

func TestFilterDirClasses(t *testing.T) {
	b := fullDirMeta(t)
	m := b.full

	zero := Filter(m, ID{Class: DirZero}, ID{Class: DirZero}.Variant())
	if !zero.Keys.DEK.IsZero() || !zero.Keys.DVK.IsZero() || !zero.Keys.DSK.IsZero() ||
		!zero.Keys.MSK.IsZero() || !zero.Keys.DataSeed.IsZero() || !zero.Keys.MetaSeed.IsZero() {
		t.Error("DirZero leaked keys")
	}
	if !meta.AttrEqual(zero.Attr, m.Attr) {
		t.Error("DirZero lost attributes")
	}

	read := Filter(m, ID{Class: DirRead}, ID{Class: DirRead}.Variant())
	if read.Keys.DEK.IsZero() || read.Keys.DVK.IsZero() {
		t.Error("DirRead missing DEK/DVK")
	}
	if !read.Keys.DSK.IsZero() || !read.Keys.DataSeed.IsZero() || !read.Keys.MSK.IsZero() {
		t.Error("DirRead leaked write/owner keys")
	}

	rx := Filter(m, ID{Class: DirReadExec}, ID{Class: DirReadExec}.Variant())
	if rx.Keys.DEK.IsZero() || rx.Keys.DVK.IsZero() || !rx.Keys.DSK.IsZero() {
		t.Error("DirReadExec keys wrong")
	}

	rwx := Filter(m, ID{Class: DirReadWriteExec}, ID{Class: DirReadWriteExec}.Variant())
	if rwx.Keys.DEK.IsZero() || rwx.Keys.DVK.IsZero() || rwx.Keys.DSK.IsZero() || rwx.Keys.DataSeed.IsZero() {
		t.Error("DirReadWriteExec missing write keys")
	}
	if !rwx.Keys.MSK.IsZero() || !rwx.Keys.MetaSeed.IsZero() {
		t.Error("non-owner rwx leaked owner keys")
	}

	execOnly := Filter(m, ID{Class: DirExecOnly}, ID{Class: DirExecOnly}.Variant())
	if execOnly.Keys.DEK.IsZero() || execOnly.Keys.DVK.IsZero() || !execOnly.Keys.DSK.IsZero() {
		t.Error("DirExecOnly keys wrong")
	}

	// Distinct variants get distinct derived table DEKs.
	if read.Keys.DEK.Equal(rx.Keys.DEK) || rx.Keys.DEK.Equal(execOnly.Keys.DEK) {
		t.Error("variant table keys not distinct")
	}

	owner := Filter(m, ID{Class: DirReadWriteExec, Owner: true}, ID{Class: DirReadWriteExec, Owner: true}.Variant())
	if owner.Keys.MSK.IsZero() || owner.Keys.MetaSeed.IsZero() || owner.Keys.DataSeed.IsZero() {
		t.Error("owner variant missing owner keys")
	}
	// Owners hold the full key set even under a restrictive own-triplet
	// (they can always chmod themselves back in); enforcement of the
	// owner triplet is client policy.
	ownerZero := Filter(m, ID{Class: DirZero, Owner: true}, ID{Class: DirZero, Owner: true}.Variant())
	if ownerZero.Keys.MSK.IsZero() || ownerZero.Keys.DEK.IsZero() || ownerZero.Keys.DataSeed.IsZero() {
		t.Error("restricted owner variant lost re-keying ability")
	}
}

func TestFilterFileClasses(t *testing.T) {
	b := newTestMeta(t, types.KindFile, "644")
	m := b.full

	zero := Filter(m, ID{Class: FileZero}, ID{Class: FileZero}.Variant())
	if !zero.Keys.DEK.IsZero() {
		t.Error("FileZero leaked DEK")
	}
	read := Filter(m, ID{Class: FileRead}, ID{Class: FileRead}.Variant())
	if !read.Keys.DEK.Equal(m.Keys.DEK) || read.Keys.DVK.IsZero() || !read.Keys.DSK.IsZero() {
		t.Error("FileRead keys wrong")
	}
	rw := Filter(m, ID{Class: FileReadWrite}, ID{Class: FileReadWrite}.Variant())
	if !rw.Keys.DEK.Equal(m.Keys.DEK) || rw.Keys.DSK.IsZero() {
		t.Error("FileReadWrite keys wrong")
	}
	if !rw.Keys.MSK.IsZero() {
		t.Error("non-owner rw leaked MSK")
	}
	owner := Filter(m, ID{Class: FileReadWrite, Owner: true}, ID{Class: FileReadWrite, Owner: true}.Variant())
	if owner.Keys.MSK.IsZero() || owner.Keys.MetaSeed.IsZero() {
		t.Error("file owner variant missing owner keys")
	}
}

func TestMEKForDistinct(t *testing.T) {
	seed := sharocrypto.NewSymKey()
	a := MEKFor(seed, "c4o")
	b := MEKFor(seed, "c3")
	if a.Equal(b) {
		t.Error("MEKs collide across variants")
	}
	if !a.Equal(MEKFor(seed, "c4o")) {
		t.Error("MEK derivation not deterministic")
	}
	if MEKFor(sharocrypto.NewSymKey(), "c4o").Equal(a) {
		t.Error("MEK ignores seed")
	}
}
