package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

var (
	bOnce sync.Once
	bReg  *keys.Registry
	bUser map[types.UserID]*keys.User
)

func bFixture(t testing.TB) {
	t.Helper()
	bOnce.Do(func() {
		bReg = keys.NewRegistry()
		bUser = make(map[types.UserID]*keys.User)
		for _, id := range []types.UserID{"alice", "bob", "carol"} {
			u, err := keys.NewUser(id)
			if err != nil {
				t.Fatal(err)
			}
			bUser[id] = u
			bReg.AddUser(id, u.Public())
		}
		g, err := keys.NewGroup("eng")
		if err != nil {
			t.Fatal(err)
		}
		bReg.AddGroup("eng", g.Priv.Public())
		bReg.AddMember("eng", "alice")
		bReg.AddMember("eng", "bob")
	})
}

func allModes() []Mode { return []Mode{NoEncMDD, NoEncMD, Public, PubOpt} }

// bootstrap makes an empty filesystem of mode at store, root owned by
// alice:eng 0755, through the one migration tool.
func bootstrap(t testing.TB, store ssp.BlobStore, mode Mode) {
	t.Helper()
	if err := migrate.Bootstrap(migrate.Options{Store: store, Registry: bReg, Layout: New(mode, bReg),
		FSID: "bfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755}); err != nil {
		t.Fatal(err)
	}
}

// mountAs mounts a session of mode at store for the user, through the one
// client.
func mountAs(t testing.TB, store ssp.BlobStore, mode Mode, id types.UserID, cacheBytes int64, blockSize uint32, rec *stats.Recorder) *client.Session {
	t.Helper()
	s, err := client.Mount(client.Config{Store: store, Layout: New(mode, bReg), User: bUser[id], Registry: bReg,
		FSID: "bfs", Recorder: rec, CacheBytes: cacheBytes, BlockSize: blockSize})
	if err != nil {
		t.Fatalf("mount %s: %v", id, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func modeWorld(t *testing.T, mode Mode) (ssp.BlobStore, func(types.UserID) *client.Session) {
	t.Helper()
	bFixture(t)
	store := ssp.NewMemStore()
	bootstrap(t, store, mode)
	return store, func(id types.UserID) *client.Session { return mountAs(t, store, mode, id, -1, 64, nil) }
}

// TestAllModesBasicOps runs the shared-behaviour contract against every
// baseline mode: the four systems must be functionally identical,
// differing only in cryptographic cost.
func TestAllModesBasicOps(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, mount := modeWorld(t, mode)
			alice := mount("alice")

			if err := alice.Mkdir("/docs", 0o755); err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte("baseline"), 50) // multi-block at bs=64
			if err := alice.WriteFile("/docs/report", data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := alice.ReadFile("/docs/report")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read = %d bytes, %v", len(got), err)
			}
			info, err := alice.Stat("/docs/report")
			if err != nil {
				t.Fatal(err)
			}
			if info.Size != uint64(len(data)) || info.Kind != types.KindFile || info.Owner != "alice" {
				t.Errorf("info = %+v", info)
			}
			names, err := alice.ReadDir("/docs")
			if err != nil || len(names) != 1 || names[0] != "report" {
				t.Errorf("readdir = %v, %v", names, err)
			}
			// Overwrite smaller, then append.
			if err := alice.WriteFile("/docs/report", []byte("v2"), 0); err != nil {
				t.Fatal(err)
			}
			if err := alice.Append("/docs/report", bytes.Repeat([]byte("+"), 100)); err != nil {
				t.Fatal(err)
			}
			got, err = alice.ReadFile("/docs/report")
			if err != nil || len(got) != 102 || string(got[:2]) != "v2" {
				t.Fatalf("after append: %d bytes, %v", len(got), err)
			}
			// Rename and remove.
			if err := alice.Rename("/docs/report", "/docs/final"); err != nil {
				t.Fatal(err)
			}
			if err := alice.Remove("/docs/final"); err != nil {
				t.Fatal(err)
			}
			if err := alice.Remove("/docs"); err != nil {
				t.Fatal(err)
			}
			if _, err := alice.Stat("/docs"); !errors.Is(err, types.ErrNotExist) {
				t.Errorf("stat removed dir: %v", err)
			}
		})
	}
}

// TestModesShareSemanticsAcrossUsers: second users see consistent state
// in every mode (with explicit refresh, as in the Sharoes client).
func TestModesShareSemanticsAcrossUsers(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, mount := modeWorld(t, mode)
			alice, bob := mount("alice"), mount("bob")
			if err := alice.WriteFile("/shared", []byte("v1"), 0o664); err != nil {
				t.Fatal(err)
			}
			if got, err := bob.ReadFile("/shared"); err != nil || string(got) != "v1" {
				t.Fatalf("bob read = %q, %v", got, err)
			}
			if err := bob.WriteFile("/shared", []byte("v2 from bob"), 0); err != nil {
				t.Fatal(err)
			}
			alice.Refresh()
			if got, err := alice.ReadFile("/shared"); err != nil || string(got) != "v2 from bob" {
				t.Fatalf("alice read = %q, %v", got, err)
			}
		})
	}
}

// TestAdvisoryPermissions: baselines enforce permissions as client policy
// (the paper's point: they lack a real cryptographic access-control model,
// offering only coarse read/write splits).
func TestAdvisoryPermissions(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, mount := modeWorld(t, mode)
			alice, carol := mount("alice"), mount("carol")
			if err := alice.WriteFile("/private", []byte("mine"), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := carol.ReadFile("/private"); !errors.Is(err, types.ErrPermission) {
				t.Errorf("carol read 600: %v", err)
			}
			if err := carol.Chmod("/private", 0o644); !errors.Is(err, types.ErrPermission) {
				t.Errorf("carol chmod: %v", err)
			}
			if err := carol.Chown("/private", "carol", ""); !errors.Is(err, types.ErrPermission) {
				t.Errorf("carol chown: %v", err)
			}
			if err := alice.Chmod("/private", 0o644); err != nil {
				t.Fatal(err)
			}
			carol.Refresh()
			if got, err := carol.ReadFile("/private"); err != nil || string(got) != "mine" {
				t.Errorf("carol read after chmod = %q, %v", got, err)
			}
		})
	}
}

// TestPublicMetadataIsActuallyEncrypted: in PUBLIC and PUB-OPT no
// plaintext attribute survives at the SSP; in the NO-ENC modes it does
// (that is what makes them baselines, not systems).
func TestPublicMetadataIsActuallyEncrypted(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			store, mount := modeWorld(t, mode)
			alice := mount("alice")
			if err := alice.WriteFile("/marker-name-xyzzy", []byte("data"), 0o644); err != nil {
				t.Fatal(err)
			}
			items, err := store.List(wire.NSMeta, "")
			if err != nil {
				t.Fatal(err)
			}
			var sawOwner bool
			for _, it := range items {
				if bytes.Contains(it.Val, []byte("alice")) {
					sawOwner = true
				}
			}
			if mode.EncryptsMetadata() && sawOwner {
				t.Errorf("%v leaked plaintext owner in metadata", mode)
			}
			if !mode.EncryptsMetadata() && !sawOwner {
				t.Errorf("%v should store plaintext metadata", mode)
			}
		})
	}
}

// TestDataEncryptionPerMode: file bytes are visible at the SSP only in
// NO-ENC-MD-D.
func TestDataEncryptionPerMode(t *testing.T) {
	payload := []byte("EXTREMELY-DISTINCTIVE-PAYLOAD-BYTES")
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			store, mount := modeWorld(t, mode)
			alice := mount("alice")
			if err := alice.WriteFile("/f", payload, 0o644); err != nil {
				t.Fatal(err)
			}
			items, err := store.List(wire.NSData, "")
			if err != nil {
				t.Fatal(err)
			}
			var visible bool
			for _, it := range items {
				if bytes.Contains(it.Val, payload) {
					visible = true
				}
			}
			if mode.EncryptsData() && visible {
				t.Errorf("%v leaked plaintext data", mode)
			}
			if !mode.EncryptsData() && !visible {
				t.Errorf("%v should store plaintext data", mode)
			}
		})
	}
}

// TestPerUserMetadataReplication: PUBLIC and PUB-OPT store per-user
// metadata state (the Scheme-1-equivalent cost the paper calls out):
// PUBLIC a copy per user, PUB-OPT one shared copy that carries a wrapped
// key per user.
func TestPerUserMetadataReplication(t *testing.T) {
	bFixture(t)
	users := len(bReg.Users())
	for _, mode := range []Mode{Public, PubOpt} {
		t.Run(mode.String(), func(t *testing.T) {
			store, mount := modeWorld(t, mode)
			alice := mount("alice")
			if err := alice.Create("/one", 0o644); err != nil {
				t.Fatal(err)
			}
			items, err := store.List(wire.NSMeta, "")
			if err != nil {
				t.Fatal(err)
			}
			// Root + one file.
			if mode == Public && len(items) != 2*users {
				t.Errorf("meta objects = %d, want a copy per user of each of 2", len(items))
			}
			if mode == PubOpt {
				if len(items) != 2 {
					t.Errorf("meta objects = %d, want one shared copy of each of 2", len(items))
				}
				for _, it := range items {
					if len(it.Val) < users*wrappedLen+metaPadSize {
						t.Errorf("%s is %d bytes, want a %d-byte wrapped key per user and the body", it.Key, len(it.Val), wrappedLen)
					}
				}
			}
			// Each user can read their own replica.
			for _, u := range []types.UserID{"bob", "carol"} {
				s := mount(u)
				if _, err := s.Stat("/one"); err != nil {
					t.Errorf("%s stat: %v", u, err)
				}
			}
		})
	}
}

// TestCryptoCostOrdering: the microcost ordering the whole evaluation
// rests on — PUBLIC metadata reads are far more expensive than PUB-OPT,
// which is more expensive than the NO-ENC modes.
func TestCryptoCostOrdering(t *testing.T) {
	bFixture(t)
	cost := make(map[Mode]int64)
	for _, mode := range allModes() {
		store := ssp.NewMemStore()
		bootstrap(t, store, mode)
		var rec stats.Recorder
		s := mountAs(t, store, mode, "alice", 0, 4096, &rec)
		for i := 0; i < 5; i++ {
			if err := s.Create(fmt.Sprintf("/f%d", i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := rec.Snapshot()
		for i := 0; i < 5; i++ {
			if _, err := s.Stat(fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		cost[mode] = int64(rec.Snapshot().Sub(before).Crypto)
	}
	if !(cost[Public] > cost[PubOpt] && cost[PubOpt] > cost[NoEncMD]) {
		t.Errorf("stat crypto cost ordering violated: PUBLIC=%d PUB-OPT=%d NO-ENC-MD=%d NO-ENC-MD-D=%d",
			cost[Public], cost[PubOpt], cost[NoEncMD], cost[NoEncMDD])
	}
}

func TestModeStrings(t *testing.T) {
	if NoEncMDD.String() != "NO-ENC-MD-D" || Public.String() != "PUBLIC" ||
		PubOpt.String() != "PUB-OPT" || NoEncMD.String() != "NO-ENC-MD" {
		t.Error("mode labels wrong")
	}
	if Mode(99).String() != "mode(99)" {
		t.Error("unknown mode label")
	}
}

func TestMountErrors(t *testing.T) {
	bFixture(t)
	if _, err := client.Mount(client.Config{}); err == nil {
		t.Error("empty config mounted")
	}
	// Mounting an un-bootstrapped store fails.
	if _, err := client.Mount(client.Config{Store: ssp.NewMemStore(), Layout: New(NoEncMD, bReg), User: bUser["alice"],
		Registry: bReg, FSID: "nope"}); err == nil {
		t.Error("mounted a missing filesystem")
	}
}

// refusingStore refuses every BatchPut while refuse is set, taking none of
// the batch.
type refusingStore struct {
	ssp.BlobStore
	refuse bool
}

var errRefused = errors.New("batch refused")

func (r *refusingStore) BatchPut(items []wire.KV) error {
	if r.refuse {
		return errRefused
	}
	return r.BlobStore.BatchPut(items)
}

// TestRefusedWriteLeavesNoTrace: in every mode, a write whose batch the
// store refuses leaves the writer's session reading what a fresh mount
// reads, and the same write retried succeeds.
func TestRefusedWriteLeavesNoTrace(t *testing.T) {
	bFixture(t)
	ops := []struct {
		name string
		op   func(s *client.Session) error
	}{
		{"create", func(s *client.Session) error { return s.Create("/d/x", 0o644) }},
		{"mkdir", func(s *client.Session) error { return s.Mkdir("/d/x", 0o755) }},
		{"overwrite", func(s *client.Session) error { return s.WriteFile("/d/old", bytes.Repeat([]byte("N"), 100), 0) }},
		{"append", func(s *client.Session) error { return s.Append("/d/old", []byte("+tail")) }},
		{"remove", func(s *client.Session) error { return s.Remove("/d/old") }},
		{"rename", func(s *client.Session) error { return s.Rename("/d/old", "/e/x") }},
	}
	observe := func(s *client.Session) string {
		out := ""
		for _, p := range []string{"/d", "/e"} {
			names, err := s.ReadDir(p)
			out += fmt.Sprintf("%s=%v %v; ", p, names, err)
			for _, n := range names {
				data, err := s.ReadFile(p + "/" + n)
				out += fmt.Sprintf("%s/%s=%q %v; ", p, n, data, err)
			}
		}
		return out
	}
	for _, mode := range allModes() {
		for _, tc := range ops {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				rs := &refusingStore{BlobStore: ssp.NewMemStore()}
				bootstrap(t, rs, mode)
				mount := func() *client.Session { return mountAs(t, rs, mode, "alice", -1, 64, nil) }
				alice := mount()
				for _, err := range []error{alice.Mkdir("/d", 0o755), alice.Mkdir("/e", 0o755),
					alice.WriteFile("/d/old", []byte("old"), 0o644)} {
					if err != nil {
						t.Fatal(err)
					}
				}
				observe(alice) // warm the writer's cache
				rs.refuse = true
				if err := tc.op(alice); !errors.Is(err, errRefused) {
					t.Fatalf("refused %s: %v", tc.name, err)
				}
				rs.refuse = false
				if got, want := observe(alice), observe(mount()); got != want {
					t.Errorf("after the refused %s:\n writer: %s\n  fresh: %s", tc.name, got, want)
				}
				if err := tc.op(alice); err != nil {
					t.Fatalf("retried %s: %v", tc.name, err)
				}
				if got, want := observe(alice), observe(mount()); got != want {
					t.Errorf("after the retried %s:\n writer: %s\n  fresh: %s", tc.name, got, want)
				}
			})
		}
	}
}
