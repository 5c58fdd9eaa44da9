package keys

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// Key generation is slow (RSA-2048); share fixtures across tests.
var (
	fixtureOnce sync.Once
	alice, bob  *User
	carol       *User
	engineering *Group
)

func fixtures(t testing.TB) {
	t.Helper()
	fixtureOnce.Do(func() {
		var err error
		if alice, err = NewUser("alice"); err != nil {
			t.Fatal(err)
		}
		if bob, err = NewUser("bob"); err != nil {
			t.Fatal(err)
		}
		if carol, err = NewUser("carol"); err != nil {
			t.Fatal(err)
		}
		if engineering, err = NewGroup("engineering"); err != nil {
			t.Fatal(err)
		}
	})
}

func testRegistry(t testing.TB) *Registry {
	fixtures(t)
	reg := NewRegistry()
	reg.AddUser(alice.ID, alice.Public())
	reg.AddUser(bob.ID, bob.Public())
	reg.AddUser(carol.ID, carol.Public())
	reg.AddGroup(engineering.ID, engineering.Priv.Public())
	reg.AddMember(engineering.ID, alice.ID)
	reg.AddMember(engineering.ID, bob.ID)
	return reg
}

func TestRegistryLookups(t *testing.T) {
	reg := testRegistry(t)
	if _, err := reg.UserKey("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.UserKey("mallory"); !errors.Is(err, types.ErrNoSuchUser) {
		t.Errorf("unknown user: %v", err)
	}
	if _, err := reg.GroupKey("engineering"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GroupKey("nope"); !errors.Is(err, types.ErrNoSuchUser) {
		t.Errorf("unknown group: %v", err)
	}
}

func TestMembership(t *testing.T) {
	reg := testRegistry(t)
	if !reg.IsMember("engineering", "alice") || !reg.IsMember("engineering", "bob") {
		t.Error("expected members missing")
	}
	if reg.IsMember("engineering", "carol") {
		t.Error("carol should not be a member")
	}
	want := []types.UserID{"alice", "bob"}
	if got := reg.Members("engineering"); !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v", got)
	}
	if got := reg.GroupsOf("alice"); len(got) != 1 || got[0] != "engineering" {
		t.Errorf("GroupsOf = %v", got)
	}
	if got := reg.GroupsOf("carol"); len(got) != 0 {
		t.Errorf("GroupsOf(carol) = %v", got)
	}
	reg.RemoveMember("engineering", "bob")
	if reg.IsMember("engineering", "bob") {
		t.Error("bob still a member after removal")
	}
	if got := reg.Users(); !reflect.DeepEqual(got, []types.UserID{"alice", "bob", "carol"}) {
		t.Errorf("Users = %v", got)
	}
	if got := reg.Groups(); !reflect.DeepEqual(got, []types.GroupID{"engineering"}) {
		t.Errorf("Groups = %v", got)
	}
}

func TestClassOf(t *testing.T) {
	reg := testRegistry(t)
	if c := reg.ClassOf("alice", "alice", "engineering"); c != types.ClassOwner {
		t.Errorf("owner class = %v", c)
	}
	if c := reg.ClassOf("bob", "alice", "engineering"); c != types.ClassGroup {
		t.Errorf("group class = %v", c)
	}
	if c := reg.ClassOf("carol", "alice", "engineering"); c != types.ClassOther {
		t.Errorf("other class = %v", c)
	}
	// Owner wins even when also a group member.
	if c := reg.ClassOf("alice", "alice", "engineering"); c != types.ClassOwner {
		t.Errorf("owner-and-member class = %v", c)
	}
}

func TestGroupKeyDistribution(t *testing.T) {
	reg := testRegistry(t)
	store := ssp.NewMemStore()
	if err := PublishGroupKey(store, reg, engineering); err != nil {
		t.Fatal(err)
	}

	// Alice (a member) can fetch and unwrap the group key in-band.
	got, err := FetchGroupKeys(store, reg, alice)
	if err != nil {
		t.Fatal(err)
	}
	gk, ok := got["engineering"]
	if !ok {
		t.Fatal("alice did not receive the engineering key")
	}
	// The unwrapped key must actually be the group's private key:
	// something sealed to the group public key must open with it.
	sealed, err := engineering.Priv.Public().Seal([]byte("root pointer"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := gk.Open(sealed)
	if err != nil || string(pt) != "root pointer" {
		t.Fatalf("unwrapped key unusable: %v", err)
	}

	// Carol (not a member) gets nothing.
	gotCarol, err := FetchGroupKeys(store, reg, carol)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCarol) != 0 {
		t.Errorf("carol received %d group keys", len(gotCarol))
	}
}

func TestGroupKeyConfidentiality(t *testing.T) {
	reg := testRegistry(t)
	store := ssp.NewMemStore()
	if err := PublishGroupKey(store, reg, engineering); err != nil {
		t.Fatal(err)
	}
	// Even if carol obtains bob's wrapped blob from the (untrusted) SSP,
	// she cannot unwrap it with her own key.
	blob, err := store.Get(2 /* any ns probing */, "")
	_ = blob
	_ = err
	items, err := store.List(4 /* wire.NSGroupKey */, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("expected 2 wrapped keys, got %d", len(items))
	}
	for _, it := range items {
		if _, err := carol.Priv.Open(it.Val); err == nil {
			t.Error("carol unwrapped a key not sealed for her")
		}
	}
}

func TestRevokeGroupKey(t *testing.T) {
	reg := testRegistry(t)
	store := ssp.NewMemStore()
	if err := PublishGroupKey(store, reg, engineering); err != nil {
		t.Fatal(err)
	}
	if err := RevokeGroupKey(store, "engineering", "bob"); err != nil {
		t.Fatal(err)
	}
	got, err := FetchGroupKeys(store, reg, bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("bob still has a wrapped key after revocation")
	}
}

func TestPrincipal(t *testing.T) {
	reg := testRegistry(t)
	pu := UserPrincipal("alice")
	pg := GroupPrincipal("engineering")
	if pu.String() != "u:alice" || pg.String() != "g:engineering" {
		t.Errorf("strings = %q, %q", pu.String(), pg.String())
	}
	if _, err := pu.PublicKey(reg); err != nil {
		t.Error(err)
	}
	if _, err := pg.PublicKey(reg); err != nil {
		t.Error(err)
	}
	if _, err := UserPrincipal("mallory").PublicKey(reg); err == nil {
		t.Error("unknown principal resolved")
	}
}

func TestUserSaveLoad(t *testing.T) {
	fixtures(t)
	path := t.TempDir() + "/alice.key"
	if err := alice.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Errorf("key file mode = %v, want 0600", info.Mode().Perm())
	}
	got, err := LoadUser(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != alice.ID {
		t.Errorf("id = %q", got.ID)
	}
	// The loaded key must actually decrypt what the original seals.
	sealed, err := alice.Public().Seal([]byte("prove it"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := got.Priv.Open(sealed)
	if err != nil || string(pt) != "prove it" {
		t.Errorf("loaded key unusable: %v", err)
	}
	if _, err := LoadUser(t.TempDir() + "/missing"); err == nil {
		t.Error("loaded missing key file")
	}
}

func TestRegistrySaveLoad(t *testing.T) {
	reg := testRegistry(t)
	path := t.TempDir() + "/registry.json"
	if err := reg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Users(), reg.Users()) {
		t.Errorf("users = %v", got.Users())
	}
	if !reflect.DeepEqual(got.Groups(), reg.Groups()) {
		t.Errorf("groups = %v", got.Groups())
	}
	if !got.IsMember("engineering", "alice") || got.IsMember("engineering", "carol") {
		t.Error("membership lost")
	}
	// Public keys survive: sealing to a loaded key works with the
	// original private key.
	pub, err := got.UserKey("bob")
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := pub.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Priv.Open(sealed); err != nil {
		t.Errorf("loaded public key mismatched: %v", err)
	}
	if _, err := LoadRegistry("/nonexistent/registry.json"); err == nil {
		t.Error("loaded missing registry")
	}
}

// shortListStore answers a listing with a key shorter than the prefix
// asked for.
type shortListStore struct{ ssp.BlobStore }

func (s shortListStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	return []wire.KV{{NS: ns, Key: "u/"}}, nil
}

// TestFetchGroupKeysRefusesStrayKey: a listed key outside the member's
// prefix is tampering, reported as such rather than sliced past its end.
func TestFetchGroupKeysRefusesStrayKey(t *testing.T) {
	fixtures(t)
	if _, err := FetchGroupKeys(shortListStore{ssp.NewMemStore()}, testRegistry(t), alice); !errors.Is(err, types.ErrTampered) {
		t.Fatalf("FetchGroupKeys over a stray listing: %v", err)
	}
}

// TestFetchGroupKeysVouchedByRegistry: the SSP picks what the listing
// holds, so a wrapped key is used only if the registry vouches for it.
// A group the registry does not know and a key that is not the group's
// registered one are tampering; an ex-member's leftover copy is skipped.
func TestFetchGroupKeysVouchedByRegistry(t *testing.T) {
	forge := func(t *testing.T, gid types.GroupID) ssp.BlobStore {
		t.Helper()
		store := ssp.NewMemStore()
		if err := PublishGroupKey(store, testRegistry(t), engineering); err != nil {
			t.Fatal(err)
		}
		// Any private key will do as the forgery: carol's.
		sealed, err := alice.Public().Seal(carol.Priv.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(wire.NSGroupKey, groupKeyStorageKey(alice.ID, gid), sealed); err != nil {
			t.Fatal(err)
		}
		return store
	}
	for _, gid := range []types.GroupID{"evil", engineering.ID} {
		store := forge(t, gid)
		if _, err := FetchGroupKeys(store, testRegistry(t), alice); !errors.Is(err, types.ErrTampered) {
			t.Errorf("forged key listed as %q: %v", gid, err)
		}
	}

	reg := testRegistry(t)
	store := ssp.NewMemStore()
	if err := PublishGroupKey(store, reg, engineering); err != nil {
		t.Fatal(err)
	}
	reg.RemoveMember(engineering.ID, bob.ID)
	got, err := FetchGroupKeys(store, reg, bob)
	if err != nil || len(got) != 0 {
		t.Errorf("ex-member fetch = %d keys, %v; want none and no error", len(got), err)
	}
}
