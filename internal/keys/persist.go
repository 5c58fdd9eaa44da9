package keys

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// Persistence for the command-line tools: a user's private key is a
// single file the user guards (mode 0600), and the registry is a public
// JSON document the enterprise distributes freely (it contains only
// public keys and memberships).

// userFile is the on-disk form of a user key.
type userFile struct {
	ID   string `json:"id"`
	Priv string `json:"private_key"` // base64 PKCS#1
}

// Save writes the user's private key to path with owner-only permissions.
func (u *User) Save(path string) error {
	blob, err := json.MarshalIndent(userFile{
		ID:   string(u.ID),
		Priv: base64.StdEncoding.EncodeToString(u.Priv.Marshal()),
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("keys: save user: %w", err)
	}
	// The key file is the user's own trust root on their own machine,
	// written with owner-only permissions — not SSP egress.
	return os.WriteFile(path, blob, 0o600)
}

// LoadUser reads a user key saved by Save.
func LoadUser(path string) (*User, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("keys: load user: %w", err)
	}
	var uf userFile
	if err := json.Unmarshal(blob, &uf); err != nil {
		return nil, fmt.Errorf("keys: load user: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(uf.Priv)
	if err != nil {
		return nil, fmt.Errorf("keys: load user: %w", err)
	}
	priv, err := sharocrypto.PrivateKeyFromBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("keys: load user: %w", err)
	}
	return &User{ID: types.UserID(uf.ID), Priv: priv}, nil
}

// registryFile is the on-disk form of the registry.
type registryFile struct {
	Users   map[string]string   `json:"users"`  // id → base64 public key
	Groups  map[string]string   `json:"groups"` // id → base64 public key
	Members map[string][]string `json:"members"`
}

// Save writes the registry (public information only) to path.
func (r *Registry) Save(path string) error {
	rf := registryFile{
		Users:   map[string]string{},
		Groups:  map[string]string{},
		Members: map[string][]string{},
	}
	for _, u := range r.Users() {
		pub, err := r.UserKey(u)
		if err != nil {
			return err
		}
		rf.Users[string(u)] = base64.StdEncoding.EncodeToString(pub.Marshal())
	}
	for _, g := range r.Groups() {
		pub, err := r.GroupKey(g)
		if err != nil {
			return err
		}
		rf.Groups[string(g)] = base64.StdEncoding.EncodeToString(pub.Marshal())
		members := r.Members(g)
		ms := make([]string, len(members))
		for i, m := range members {
			ms[i] = string(m)
		}
		sort.Strings(ms)
		rf.Members[string(g)] = ms
	}
	blob, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("keys: save registry: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}

// LoadRegistry reads a registry saved by Save.
func LoadRegistry(path string) (*Registry, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("keys: load registry: %w", err)
	}
	var rf registryFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("keys: load registry: %w", err)
	}
	r := NewRegistry()
	for id, pk := range rf.Users {
		raw, err := base64.StdEncoding.DecodeString(pk)
		if err != nil {
			return nil, fmt.Errorf("keys: load registry user %q: %w", id, err)
		}
		pub, err := sharocrypto.PublicKeyFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("keys: load registry user %q: %w", id, err)
		}
		r.AddUser(types.UserID(id), pub)
	}
	for id, pk := range rf.Groups {
		raw, err := base64.StdEncoding.DecodeString(pk)
		if err != nil {
			return nil, fmt.Errorf("keys: load registry group %q: %w", id, err)
		}
		pub, err := sharocrypto.PublicKeyFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("keys: load registry group %q: %w", id, err)
		}
		r.AddGroup(types.GroupID(id), pub)
	}
	for g, members := range rf.Members {
		for _, m := range members {
			r.AddMember(types.GroupID(g), types.UserID(m))
		}
	}
	return r, nil
}
