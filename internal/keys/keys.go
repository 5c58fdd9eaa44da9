// Package keys manages Sharoes principals: users, groups, the public-key
// directory that stands in for an enterprise PKI, and the in-band group key
// distribution of the paper (§II-A).
//
// Each user and each group owns a 2048-bit RSA key pair. A user's private
// key is the only secret they manage; group private keys are stored at the
// SSP encrypted individually with each member's public key, and are fetched
// and unwrapped when the user mounts the filesystem.
package keys

import (
	"fmt"
	"sort"
	"sync"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// User is a principal with their private key. Outside tests and the
// migration tool, only the user themselves holds this value.
type User struct {
	ID   types.UserID
	Priv sharocrypto.PrivateKey
}

// NewUser generates a user with a fresh key pair.
func NewUser(id types.UserID) (*User, error) {
	priv, err := sharocrypto.NewPrivateKey()
	if err != nil {
		return nil, err
	}
	return &User{ID: id, Priv: priv}, nil
}

// Public returns the user's public key.
func (u *User) Public() sharocrypto.PublicKey { return u.Priv.Public() }

// Group is a group principal; the private key is created by the migration
// tool and distributed in-band to members.
type Group struct {
	ID   types.GroupID
	Priv sharocrypto.PrivateKey
}

// NewGroup generates a group with a fresh key pair.
func NewGroup(id types.GroupID) (*Group, error) {
	priv, err := sharocrypto.NewPrivateKey()
	if err != nil {
		return nil, err
	}
	return &Group{ID: id, Priv: priv}, nil
}

// Registry is the enterprise directory: every user's and group's public key
// and group memberships. This is public information — the paper assumes
// "each user knows the public keys for all other users" via PKI or
// identity-based encryption. The registry carries no secrets.
type Registry struct {
	mu      sync.RWMutex
	users   map[types.UserID]sharocrypto.PublicKey
	groups  map[types.GroupID]sharocrypto.PublicKey
	members map[types.GroupID]map[types.UserID]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		users:   make(map[types.UserID]sharocrypto.PublicKey),
		groups:  make(map[types.GroupID]sharocrypto.PublicKey),
		members: make(map[types.GroupID]map[types.UserID]bool),
	}
}

// AddUser registers a user's public key.
func (r *Registry) AddUser(id types.UserID, pub sharocrypto.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.users[id] = pub
}

// AddGroup registers a group's public key.
func (r *Registry) AddGroup(id types.GroupID, pub sharocrypto.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups[id] = pub
	if r.members[id] == nil {
		r.members[id] = make(map[types.UserID]bool)
	}
}

// AddMember adds a user to a group.
func (r *Registry) AddMember(g types.GroupID, u types.UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[g] == nil {
		r.members[g] = make(map[types.UserID]bool)
	}
	r.members[g][u] = true
}

// RemoveMember removes a user from a group. The caller is responsible for
// the revocation consequences (re-keying objects the group could read).
func (r *Registry) RemoveMember(g types.GroupID, u types.UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.members[g], u)
}

// UserKey returns a user's public key.
func (r *Registry) UserKey(id types.UserID) (sharocrypto.PublicKey, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.users[id]
	if !ok {
		return sharocrypto.PublicKey{}, fmt.Errorf("%w: user %q", types.ErrNoSuchUser, id)
	}
	return pub, nil
}

// GroupKey returns a group's public key.
func (r *Registry) GroupKey(id types.GroupID) (sharocrypto.PublicKey, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.groups[id]
	if !ok {
		return sharocrypto.PublicKey{}, fmt.Errorf("%w: group %q", types.ErrNoSuchUser, id)
	}
	return pub, nil
}

// IsMember reports whether u belongs to g.
func (r *Registry) IsMember(g types.GroupID, u types.UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[g][u]
}

// Members returns g's membership, sorted.
func (r *Registry) Members(g types.GroupID) []types.UserID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]types.UserID, 0, len(r.members[g]))
	for u := range r.members[g] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GroupsOf returns every group u belongs to, sorted.
func (r *Registry) GroupsOf(u types.UserID) []types.GroupID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []types.GroupID
	for g, m := range r.members {
		if m[u] {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Users returns every registered user, sorted.
func (r *Registry) Users() []types.UserID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]types.UserID, 0, len(r.users))
	for u := range r.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Groups returns every registered group, sorted.
func (r *Registry) Groups() []types.GroupID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]types.GroupID, 0, len(r.groups))
	for g := range r.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClassOf evaluates which accessor class user u falls into for an object
// owned by owner:group, per the first-match UNIX rule.
func (r *Registry) ClassOf(u types.UserID, owner types.UserID, group types.GroupID) types.Class {
	if u == owner {
		return types.ClassOwner
	}
	if r.IsMember(group, u) {
		return types.ClassGroup
	}
	return types.ClassOther
}

// groupKeyStorageKey is the SSP key for a member's wrapped group key.
func groupKeyStorageKey(u types.UserID, g types.GroupID) string {
	return "u/" + string(u) + "/g/" + string(g)
}

// PublishGroupKey stores g's private key at the SSP, wrapped once per
// member with that member's public key. Called by the migration tool at
// setup and whenever membership grows.
func PublishGroupKey(store ssp.BlobStore, reg *Registry, g *Group) error {
	blob := g.Priv.Marshal()
	items := make([]wire.KV, 0, 8)
	for _, uid := range reg.Members(g.ID) {
		pub, err := reg.UserKey(uid)
		if err != nil {
			return fmt.Errorf("keys: publish group %q: %w", g.ID, err)
		}
		sealed, err := pub.Seal(blob)
		if err != nil {
			return fmt.Errorf("keys: publish group %q: %w", g.ID, err)
		}
		items = append(items, wire.KV{NS: wire.NSGroupKey, Key: groupKeyStorageKey(uid, g.ID), Val: sealed})
	}
	return store.BatchPut(items)
}

// RevokeGroupKey removes a departing member's wrapped copy. The group key
// itself should also be rotated by the caller when strict revocation is
// required.
func RevokeGroupKey(store ssp.BlobStore, g types.GroupID, u types.UserID) error {
	return store.Delete(wire.NSGroupKey, groupKeyStorageKey(u, g))
}

// FetchGroupKeys retrieves and unwraps every group private key stored for
// user u — the in-band half of mount (paper §II-A: "when a user logs into
// the system ... she obtains her encrypted group key blocks and uses her
// private key to decrypt"). The SSP chooses what it lists and RSA-OAEP
// authenticates nothing, so each key is vouched for by reg: a group reg
// does not know, or a key whose public half is not the group's registered
// key, is types.ErrTampered. A key of a group u has left is skipped
// unopened: RemoveMember leaves the wrapped copy until the group re-keys.
func FetchGroupKeys(store ssp.BlobStore, reg *Registry, u *User) (map[types.GroupID]sharocrypto.PrivateKey, error) {
	prefix := "u/" + string(u.ID) + "/g/"
	items, err := ssp.ListUnder(store, wire.NSGroupKey, prefix)
	if err != nil {
		return nil, fmt.Errorf("keys: fetch group keys: %w", err)
	}
	out := make(map[types.GroupID]sharocrypto.PrivateKey, len(items))
	for _, it := range items {
		gid := types.GroupID(it.Key[len(prefix):])
		pub, err := reg.GroupKey(gid)
		if err != nil {
			return nil, fmt.Errorf("keys: group key %q: %w: %w", gid, types.ErrTampered, err)
		}
		if !reg.IsMember(gid, u.ID) {
			continue
		}
		blob, err := u.Priv.Open(it.Val)
		if err != nil {
			return nil, fmt.Errorf("keys: unwrap group key %q: %w", gid, err)
		}
		priv, err := sharocrypto.PrivateKeyFromBytes(blob)
		if err != nil {
			return nil, fmt.Errorf("keys: parse group key %q: %w", gid, err)
		}
		if priv.Public().Fingerprint() != pub.Fingerprint() {
			return nil, fmt.Errorf("keys: group key %q is not the registered one: %w", gid, types.ErrTampered)
		}
		out[gid] = priv
	}
	return out, nil
}

// Principal identifies a sealing target: a user or a group. Superblocks and
// split-point pointers are sealed to principals; sealing to a group covers
// all members with a single stored blob.
type Principal struct {
	User  types.UserID // exactly one of User/Group is set
	Group types.GroupID
}

// UserPrincipal returns a user principal.
func UserPrincipal(u types.UserID) Principal { return Principal{User: u} }

// GroupPrincipal returns a group principal.
func GroupPrincipal(g types.GroupID) Principal { return Principal{Group: g} }

// String returns a stable storage-key fragment for the principal.
func (p Principal) String() string {
	if p.User != "" {
		return "u:" + string(p.User)
	}
	return "g:" + string(p.Group)
}

// PublicKey resolves the principal's public key in the registry.
func (p Principal) PublicKey(reg *Registry) (sharocrypto.PublicKey, error) {
	if p.User != "" {
		return reg.UserKey(p.User)
	}
	return reg.GroupKey(p.Group)
}
