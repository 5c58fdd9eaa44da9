package layout

import (
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// universe is a shared fixture: alice owns things, bob shares her group,
// carol and dave are others. RSA keygen is slow, so build it once.
type universe struct {
	reg   *keys.Registry
	users map[types.UserID]*keys.User
}

var (
	uniOnce sync.Once
	uni     *universe
)

func testUniverse(t testing.TB) *universe {
	t.Helper()
	uniOnce.Do(func() {
		u := &universe{reg: keys.NewRegistry(), users: make(map[types.UserID]*keys.User)}
		for _, id := range []types.UserID{"alice", "bob", "carol", "dave"} {
			usr, err := keys.NewUser(id)
			if err != nil {
				t.Fatal(err)
			}
			u.users[id] = usr
			u.reg.AddUser(id, usr.Public())
		}
		grp, err := keys.NewGroup("eng")
		if err != nil {
			t.Fatal(err)
		}
		u.reg.AddGroup("eng", grp.Priv.Public())
		u.reg.AddMember("eng", "alice")
		u.reg.AddMember("eng", "bob")
		uni = u
	})
	return uni
}

// newFullMeta builds a complete metadata object.
func newFullMeta(ino types.Inode, kind types.ObjKind, owner types.UserID, group types.GroupID, perm string) *meta.Metadata {
	p, err := types.ParsePerm(perm)
	if err != nil {
		panic(err)
	}
	dsk, dvk := sharocrypto.NewSigningPair()
	msk, _ := sharocrypto.NewSigningPair()
	return &meta.Metadata{
		Attr: meta.Attr{Inode: ino, Kind: kind, Owner: owner, Group: group, Perm: p, MTime: 1},
		Keys: meta.KeySet{
			DEK:      sharocrypto.NewSymKey(),
			DataSeed: sharocrypto.NewSymKey(),
			DVK:      dvk,
			DSK:      dsk,
			MSK:      msk,
			MetaSeed: sharocrypto.NewSymKey(),
		},
	}
}

func TestScheme2Variants(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	if eng.Name() != "scheme2" {
		t.Error("name")
	}
	dir := newFullMeta(10, types.KindDir, "alice", "eng", "751")
	vs := eng.Variants(dir.Attr)
	if len(vs) != 3 {
		t.Fatalf("variants = %v", vs)
	}
	byID := map[string]cap.ID{}
	for _, v := range vs {
		byID[v.ID] = v.Cap
	}
	if byID["o"].Class != cap.DirReadWriteExec || !byID["o"].Owner {
		t.Errorf("owner variant = %+v", byID["o"])
	}
	if byID["g"].Class != cap.DirReadExec || byID["g"].Owner {
		t.Errorf("group variant = %+v", byID["g"])
	}
	if byID["t"].Class != cap.DirExecOnly {
		t.Errorf("other variant = %+v", byID["t"])
	}
}

func TestScheme2UserVariant(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	dir := newFullMeta(10, types.KindDir, "alice", "eng", "751")
	if v := eng.UserVariant("alice", dir.Attr); v.ID != "o" || !v.Cap.Owner {
		t.Errorf("alice variant = %+v", v)
	}
	if v := eng.UserVariant("bob", dir.Attr); v.ID != "g" || v.Cap.Class != cap.DirReadExec {
		t.Errorf("bob variant = %+v", v)
	}
	if v := eng.UserVariant("carol", dir.Attr); v.ID != "t" || v.Cap.Class != cap.DirExecOnly {
		t.Errorf("carol variant = %+v", v)
	}
}

func TestVariantMEKsDistinct(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	dir := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	vs := eng.Variants(dir.Attr)
	seen := map[sharocrypto.SymKey]string{}
	for _, v := range vs {
		k := v.MEK(dir)
		if prev, ok := seen[k]; ok {
			t.Errorf("MEK collision between %q and %q", prev, v.ID)
		}
		seen[k] = v.ID
	}
}

func TestScheme2RowUniform(t *testing.T) {
	// Parent and child share owner/group: every traveller keeps their
	// class, so all rows are direct — the common inherited case.
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(11, types.KindFile, "alice", "eng", "644")

	for _, pv := range eng.Variants(parent.Attr) {
		entry, grants, err := eng.Row(parent.Attr, pv, child)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Split {
			t.Errorf("variant %q: unexpected split", pv.ID)
		}
		if len(grants) != 0 {
			t.Errorf("variant %q: unexpected grants", pv.ID)
		}
		if entry.Variant != pv.ID {
			t.Errorf("variant %q: row links to %q", pv.ID, entry.Variant)
		}
		if entry.MEK != cap.MEKFor(child.Keys.MetaSeed, entry.Variant) {
			t.Errorf("variant %q: wrong MEK", pv.ID)
		}
		if !entry.MVK.Equal(child.Keys.MSK.VerifyKey()) {
			t.Errorf("variant %q: wrong MVK", pv.ID)
		}
	}
}

func TestScheme2RowSplit(t *testing.T) {
	// The /home case: parent owned by an admin, child owned by bob. In the
	// parent's "t" variant, travellers carol+dave are class-other on the
	// child but bob is its owner → split.
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(11, types.KindDir, "bob", "eng", "700")

	// Parent "t" travellers: carol and dave (alice owner, bob group).
	// Both are class-other on the child (group "eng": bob+alice... bob is
	// owner of child, alice is group member!). Wait: the child group is
	// eng, carol/dave are not members → both other: uniform!
	// Make it split: give the child a group carol belongs to.
	u.reg.AddGroup("qa", u.users["carol"].Public())
	u.reg.AddMember("qa", "carol")
	child.Attr.Group = "qa"
	// Now parent-"t" travellers: carol (group on child) + dave (other) → split.

	entry, grants, err := eng.Row(parent.Attr, Variant{ID: "t"}, child)
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Split {
		t.Fatal("expected a split row")
	}
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2 (carol, dave)", len(grants))
	}
	// Each grant must be sealed to its principal and point to their class
	// variant of the child.
	wantVariant := map[types.UserID]string{"carol": "g", "dave": "t"}
	for _, kv := range grants {
		if kv.NS != wire.NSSplit {
			t.Errorf("grant namespace = %v", kv.NS)
		}
		var matched bool
		for uid, wantV := range wantVariant {
			if kv.Key != meta.SplitKey(child.Attr.Inode, "u:"+string(uid)) {
				continue
			}
			matched = true
			ptr, err := meta.OpenSplitPointer(u.users[uid].Priv, kv.Val)
			if err != nil {
				t.Fatalf("%s cannot open their grant: %v", uid, err)
			}
			if ptr.Variant != wantV {
				t.Errorf("%s pointer variant = %q, want %q", uid, ptr.Variant, wantV)
			}
			if ptr.MEK != cap.MEKFor(child.Keys.MetaSeed, wantV) {
				t.Errorf("%s pointer MEK wrong", uid)
			}
			// The other user must not be able to open it.
			for otherID, other := range u.users {
				if otherID == uid {
					continue
				}
				if _, err := meta.OpenSplitPointer(other.Priv, kv.Val); err == nil {
					t.Errorf("%s opened %s's grant", otherID, uid)
				}
			}
		}
		if !matched {
			t.Errorf("unexpected grant key %q", kv.Key)
		}
	}
}

func TestScheme2RowOwnerVariantSingleTraveller(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	// Child owned by someone else: alice is group on child.
	child := newFullMeta(11, types.KindFile, "bob", "eng", "640")
	entry, grants, err := eng.Row(parent.Attr, Variant{ID: "o"}, child)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Split || len(grants) != 0 {
		t.Fatal("owner variant with one traveller must not split")
	}
	if entry.Variant != "g" {
		t.Errorf("alice (group on child) should link to g, got %q", entry.Variant)
	}
}

func TestScheme2RowBadVariant(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(11, types.KindFile, "alice", "eng", "644")
	if _, _, err := eng.Row(parent.Attr, Variant{ID: "zz"}, child); err == nil {
		t.Error("bad variant accepted")
	}
}

func TestScheme1VariantsPerUser(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme1(u.reg)
	if eng.Name() != "scheme1" {
		t.Error("name")
	}
	dir := newFullMeta(10, types.KindDir, "alice", "eng", "751")
	vs := eng.Variants(dir.Attr)
	if len(vs) != 4 { // one per registered user
		t.Fatalf("variants = %d, want 4", len(vs))
	}
	byID := map[string]cap.ID{}
	for _, v := range vs {
		byID[v.ID] = v.Cap
	}
	if byID["u/alice"].Class != cap.DirReadWriteExec || !byID["u/alice"].Owner {
		t.Errorf("alice = %+v", byID["u/alice"])
	}
	if byID["u/bob"].Class != cap.DirReadExec {
		t.Errorf("bob = %+v", byID["u/bob"])
	}
	if byID["u/carol"].Class != cap.DirExecOnly {
		t.Errorf("carol = %+v", byID["u/carol"])
	}
}

func TestScheme1RowNeverSplits(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme1(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(11, types.KindDir, "bob", "eng", "700")
	for _, pv := range eng.Variants(parent.Attr) {
		entry, grants, err := eng.Row(parent.Attr, pv, child)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Split || len(grants) != 0 {
			t.Errorf("scheme-1 split on %q", pv.ID)
		}
		if entry.Variant != pv.ID {
			t.Errorf("row for %q links to %q; per-user trees must stay per-user", pv.ID, entry.Variant)
		}
	}
	if _, _, err := eng.Row(parent.Attr, Variant{ID: "bogus"}, child); err == nil {
		t.Error("bad scheme-1 variant accepted")
	}
}

func TestBuildMetaKVs(t *testing.T) {
	u := testUniverse(t)
	for _, eng := range []Engine{NewScheme1(u.reg), NewScheme2(u.reg)} {
		full := newFullMeta(42, types.KindFile, "alice", "eng", "640")
		kvs := BuildMetaKVs(eng, full)
		want := len(eng.Variants(full.Attr))
		if len(kvs) != want {
			t.Fatalf("%s: kvs = %d, want %d", eng.Name(), len(kvs), want)
		}
		mvk := full.Keys.MSK.VerifyKey()
		for _, v := range eng.Variants(full.Attr) {
			var blob []byte
			for _, kv := range kvs {
				if kv.Key == meta.MetaKey(42, v.ID) && kv.NS == wire.NSMeta {
					blob = kv.Val
				}
			}
			if blob == nil {
				t.Fatalf("%s: variant %q not stored", eng.Name(), v.ID)
			}
			m, err := meta.OpenMetadata(v.MEK(full), mvk, meta.MetaAAD(42, v.ID), blob)
			if err != nil {
				t.Fatalf("%s: open %q: %v", eng.Name(), v.ID, err)
			}
			if !meta.AttrEqual(m.Attr, full.Attr) {
				t.Errorf("%s: attr mismatch in %q", eng.Name(), v.ID)
			}
			if v.Cap.Owner {
				if m.Keys.MSK.IsZero() || m.Keys.MetaSeed.IsZero() {
					t.Errorf("%s: owner variant missing owner keys", eng.Name())
				}
			} else if !m.Keys.MSK.IsZero() {
				t.Errorf("%s: non-owner variant %q leaked MSK", eng.Name(), v.ID)
			}
			if v.Cap.Class == cap.FileReadWrite && m.Keys.DSK.IsZero() {
				t.Errorf("%s: rw variant missing DSK", eng.Name())
			}
			if v.Cap.Class == cap.FileZero && !v.Cap.Owner && !m.Keys.DEK.IsZero() {
				t.Errorf("%s: zero variant leaked DEK", eng.Name())
			}
		}
		// Delete markers cover the same keys.
		dels := DeleteMetaKVs(eng, full.Attr)
		if len(dels) != len(kvs) {
			t.Errorf("%s: deletes = %d", eng.Name(), len(dels))
		}
		for _, d := range dels {
			if !d.Delete {
				t.Errorf("%s: delete marker not set", eng.Name())
			}
		}
	}
}

func TestBuildTableKVs(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	dir := newFullMeta(10, types.KindDir, "alice", "eng", "750") // other: ---
	child := newFullMeta(11, types.KindFile, "alice", "eng", "640")

	table := &meta.DirTable{}
	entry, _, err := eng.Row(dir.Attr, Variant{ID: "o"}, child)
	if err != nil {
		t.Fatal(err)
	}
	entry.Name = "report"
	table.Insert(entry)

	kvs, err := BuildTableKVs(eng, dir, table)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("kvs = %d", len(kvs))
	}
	for _, kv := range kvs {
		switch kv.Key {
		case meta.TableKey(10, "o"), meta.TableKey(10, "g"), meta.TableKey(10, "t"):
			if kv.Delete {
				t.Errorf("%q unexpectedly deleted", kv.Key)
			}
		default:
			t.Errorf("unexpected key %q", kv.Key)
		}
	}

	// The zero-cap "t" view is sealed under a key carol's variant never
	// contains: her metadata copy has no DEK, so the stored view is
	// opaque to her.
	tv := eng.UserVariant("carol", dir.Attr)
	if filtered := cap.Filter(dir, tv.Cap, tv.ID); !filtered.Keys.DEK.IsZero() {
		t.Error("zero-cap variant has a DEK")
	}

	// The group (r-x) view opens with the filtered DEK and can look up.
	gv := eng.UserVariant("bob", dir.Attr)
	filtered := cap.Filter(dir, gv.Cap, gv.ID)
	var gblob []byte
	for _, kv := range kvs {
		if kv.Key == meta.TableKey(10, "g") {
			gblob = kv.Val
		}
	}
	view, err := cap.OpenView(gv.ID, filtered.Keys.DEK, filtered.Keys.DVK, 10, gblob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.Lookup("report")
	if err != nil {
		t.Fatal(err)
	}
	if got.Inode != 11 {
		t.Errorf("lookup inode = %v", got.Inode)
	}

	dels := DeleteTableKVs(eng, dir.Attr)
	if len(dels) != 3 {
		t.Errorf("table deletes = %d", len(dels))
	}
}

func TestBuildRows(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(12, types.KindFile, "alice", "eng", "644")

	tables := map[string]*meta.DirTable{
		"o": {}, "g": {}, "t": {},
	}
	grants, err := BuildRows(eng, parent, tables, "notes.txt", child)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 0 {
		t.Errorf("uniform insert produced grants: %d", len(grants))
	}
	for id, tbl := range tables {
		e, err := tbl.Lookup("notes.txt")
		if err != nil {
			t.Fatalf("variant %q: %v", id, err)
		}
		if e.Inode != 12 {
			t.Errorf("variant %q: inode %v", id, e.Inode)
		}
	}

	// Replacing an existing row (e.g. after child chmod) works too.
	child.Attr.Perm, _ = types.ParsePerm("600")
	if _, err := BuildRows(eng, parent, tables, "notes.txt", child); err != nil {
		t.Fatal(err)
	}
	if tables["o"].Len() != 1 {
		t.Error("replace duplicated row")
	}
}

func TestDedupeKVs(t *testing.T) {
	kvs := []wire.KV{
		{NS: wire.NSSplit, Key: "a", Val: []byte("1")},
		{NS: wire.NSSplit, Key: "b", Val: []byte("2")},
		{NS: wire.NSSplit, Key: "a", Val: []byte("3")},
	}
	out := dedupeKVs(kvs)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if string(out[0].Val) != "3" || out[0].Key != "a" {
		t.Errorf("last write not kept: %+v", out[0])
	}
	if got := dedupeKVs(nil); len(got) != 0 {
		t.Error("nil input")
	}
}

func TestSplitRowResolution(t *testing.T) {
	// End-to-end split flow: build the row, store grants, resolve as the
	// traveller would.
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(11, types.KindDir, "carol", "", "700")

	entry, grants, err := eng.Row(parent.Attr, Variant{ID: "t"}, child)
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Split {
		t.Skip("expected split in this configuration")
	}
	// carol (owner of child) resolves her pointer to the owner variant.
	var carolBlob []byte
	for _, kv := range grants {
		if kv.Key == meta.SplitKey(11, "u:carol") {
			carolBlob = kv.Val
		}
	}
	if carolBlob == nil {
		t.Fatal("no grant for carol")
	}
	ptr, err := meta.OpenSplitPointer(u.users["carol"].Priv, carolBlob)
	if err != nil {
		t.Fatal(err)
	}
	if ptr.Variant != "o" {
		t.Errorf("carol's variant = %q, want owner", ptr.Variant)
	}
	if ptr.MEK != cap.MEKFor(child.Keys.MetaSeed, "o") {
		t.Error("carol's MEK wrong")
	}
}

func TestScheme2ACLVariants(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	f := newFullMeta(20, types.KindFile, "alice", "eng", "640")
	f.Attr.SetACL("carol", types.TripletRead)

	vs := eng.Variants(f.Attr)
	if len(vs) != 4 {
		t.Fatalf("variants = %v", vs)
	}
	var aclVar *Variant
	for i := range vs {
		if vs[i].ID == "a/carol" {
			aclVar = &vs[i]
		}
	}
	if aclVar == nil {
		t.Fatal("no ACL variant for carol")
	}
	if aclVar.Cap.Class != cap.FileRead || aclVar.Cap.Owner {
		t.Errorf("ACL cap = %+v", aclVar.Cap)
	}
	// carol routes to her grant; dave stays in the class variant.
	if v := eng.UserVariant("carol", f.Attr); v.ID != "a/carol" {
		t.Errorf("carol variant = %q", v.ID)
	}
	if v := eng.UserVariant("dave", f.Attr); v.ID != "t" {
		t.Errorf("dave variant = %q", v.ID)
	}
	// An owner-targeted entry is ignored in the variant set.
	f2 := newFullMeta(21, types.KindFile, "alice", "eng", "640")
	f2.Attr.SetACL("alice", types.TripletRead)
	if len(eng.Variants(f2.Attr)) != 3 {
		t.Error("owner ACL entry produced a variant")
	}
	if v := eng.UserVariant("alice", f2.Attr); v.ID != "o" {
		t.Errorf("owner variant = %q", v.ID)
	}
}

// TestFixedVariantsAreInEveryVariantSet: the IDs an engine says every
// object has are in Variants of any attributes — files and directories,
// any owner, with or without ACL grants — so a key built from one before
// the metadata is open names a blob that exists; what Variants adds beyond
// them is exactly the attribute-dependent part (Scheme-2's ACL copies;
// nothing under Scheme-1).
func TestFixedVariantsAreInEveryVariantSet(t *testing.T) {
	u := testUniverse(t)
	plain := newFullMeta(30, types.KindDir, "alice", "eng", "751")
	acl := newFullMeta(31, types.KindFile, "bob", "eng", "640")
	acl.Attr.SetACL("carol", types.TripletRead)
	acl.Attr.SetACL("dave", types.TripletRead|types.TripletWrite)
	for _, eng := range []Engine{NewScheme2(u.reg), NewScheme1(u.reg)} {
		fixed := eng.FixedVariants()
		for _, m := range []*meta.Metadata{plain, acl} {
			all := map[string]bool{}
			for _, v := range eng.Variants(m.Attr) {
				all[v.ID] = true
			}
			for _, id := range fixed {
				if !all[id] {
					t.Errorf("%s: fixed variant %q is not a variant of inode %d", eng.Name(), id, m.Attr.Inode)
				}
				delete(all, id)
			}
			extra := 0
			if eng.Name() == "scheme2" {
				extra = len(m.Attr.ACL)
			}
			if len(all) != extra {
				t.Errorf("%s: inode %d has %d variants beyond the fixed ones (%v), want %d", eng.Name(), m.Attr.Inode, len(all), all, extra)
			}
		}
	}
}

func TestScheme2ACLCausesSplit(t *testing.T) {
	// carol has an ACL grant on the child: among the "t" travellers of
	// the parent (carol, dave) she now diverges — precisely the paper's
	// "POSIX ACLs cause splits" scenario.
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	parent := newFullMeta(10, types.KindDir, "alice", "eng", "755")
	child := newFullMeta(11, types.KindFile, "alice", "eng", "640")
	child.Attr.SetACL("carol", types.TripletRead)

	entry, grants, err := eng.Row(parent.Attr, Variant{ID: "t"}, child)
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Split {
		t.Fatal("ACL divergence did not split")
	}
	var carolPtr *meta.SplitPointer
	for _, kv := range grants {
		if kv.Key == meta.SplitKey(11, "u:carol") {
			p, err := meta.OpenSplitPointer(u.users["carol"].Priv, kv.Val)
			if err != nil {
				t.Fatal(err)
			}
			carolPtr = p
		}
	}
	if carolPtr == nil {
		t.Fatal("no grant for carol")
	}
	if carolPtr.Variant != "a/carol" {
		t.Errorf("carol pointer variant = %q", carolPtr.Variant)
	}
	if carolPtr.MEK != cap.MEKFor(child.Keys.MetaSeed, "a/carol") {
		t.Error("carol pointer MEK wrong")
	}
}

func TestScheme1ACLChangesContentNotVariants(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme1(u.reg)
	f := newFullMeta(20, types.KindFile, "alice", "eng", "640")
	before := eng.Variants(f.Attr)
	f.Attr.SetACL("carol", types.TripletRead)
	after := eng.Variants(f.Attr)
	if len(before) != len(after) {
		t.Fatalf("scheme1 variant count changed: %d → %d", len(before), len(after))
	}
	// carol's copy now carries the read CAP.
	v := eng.UserVariant("carol", f.Attr)
	if v.ID != "u/carol" || v.Cap.Class != cap.FileRead {
		t.Errorf("carol variant = %+v", v)
	}
}
