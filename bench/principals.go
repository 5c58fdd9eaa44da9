package main

import (
	"embed"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// The benchmark enterprise: alice (the measuring user) and bob (the
// verifying reader) share group eng; carol and dave only add superblocks.
// The same cast as workload.Enterprise.
var (
	userIDs = []types.UserID{"alice", "bob", "carol", "dave"}
	groupID = types.GroupID("eng")
)

// RSA key generation searches for primes and takes 0.1–0.4 s a key with a
// wide spread, which would drown setup_s. The principals are therefore
// committed fixtures; they protect nothing (see README.md).
//
//go:embed testdata/principals/*.json
var principalFiles embed.FS

const principalDir = "testdata/principals"

// principals is the loaded enterprise.
type principals struct {
	reg   *keys.Registry
	users map[types.UserID]*keys.User
	group *keys.Group
}

// loadKey parses one fixture, which has the layout keys.User.Save writes.
func loadKey(name string) (sharocrypto.PrivateKey, error) {
	blob, err := principalFiles.ReadFile(principalDir + "/" + name + ".json")
	if err != nil {
		return sharocrypto.PrivateKey{}, fmt.Errorf("principal %s: %w", name, err)
	}
	var f struct {
		Priv string `json:"private_key"`
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return sharocrypto.PrivateKey{}, fmt.Errorf("principal %s: %w", name, err)
	}
	raw, err := base64.StdEncoding.DecodeString(f.Priv)
	if err != nil {
		return sharocrypto.PrivateKey{}, fmt.Errorf("principal %s: %w", name, err)
	}
	priv, err := sharocrypto.PrivateKeyFromBytes(raw)
	if err != nil {
		return sharocrypto.PrivateKey{}, fmt.Errorf("principal %s: %w", name, err)
	}
	return priv, nil
}

func loadPrincipals() (*principals, error) {
	p := &principals{reg: keys.NewRegistry(), users: make(map[types.UserID]*keys.User)}
	for _, id := range userIDs {
		priv, err := loadKey(string(id))
		if err != nil {
			return nil, err
		}
		u := &keys.User{ID: id, Priv: priv}
		p.users[id] = u
		p.reg.AddUser(id, u.Public())
	}
	priv, err := loadKey(string(groupID))
	if err != nil {
		return nil, err
	}
	p.group = &keys.Group{ID: groupID, Priv: priv}
	p.reg.AddGroup(groupID, priv.Public())
	p.reg.AddMember(groupID, "alice")
	p.reg.AddMember(groupID, "bob")
	return p, nil
}

// genPrincipals regenerates the fixtures under dir and returns the mean
// cost of one key generation.
func genPrincipals(dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	names := append([]types.UserID{types.UserID(groupID)}, userIDs...)
	start := time.Now()
	for _, id := range names {
		u, err := keys.NewUser(id)
		if err != nil {
			return 0, err
		}
		if err := u.Save(filepath.Join(dir, string(id)+".json")); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(names)), nil
}
