package client

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/refmodel"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
)

// errClass buckets an error into a comparable sentinel class.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, types.ErrNotExist):
		return "notexist"
	case errors.Is(err, types.ErrExist):
		return "exist"
	case errors.Is(err, types.ErrPermission):
		return "permission"
	case errors.Is(err, types.ErrNotDir):
		return "notdir"
	case errors.Is(err, types.ErrIsDir):
		return "isdir"
	case errors.Is(err, types.ErrNotEmpty):
		return "notempty"
	case errors.Is(err, types.ErrUnsupportedPerm):
		return "unsupported"
	case errors.Is(err, types.ErrInvalidPath):
		return "invalidpath"
	case errors.Is(err, types.ErrTampered):
		return "tampered"
	default:
		return "other:" + err.Error()
	}
}

// TestModelEquivalence drives random operation sequences against the
// Sharoes client and the plain in-memory reference filesystem; every
// result and error class must agree. This is the strongest statement that
// the CAP construction reproduces *nix data-sharing semantics.
func TestModelEquivalence(t *testing.T) {
	fixture(t)
	const steps = 350
	users := []types.UserID{"alice", "bob", "carol", "dave"}
	members := refmodel.Memberships{}
	members.AddMember("eng", "alice")
	members.AddMember("eng", "bob")
	members.AddMember("qa", "carol")

	names := []string{"a", "b", "docs", "src", "x.txt", "y.txt", "deep", "n1"}
	// Valid permissions, plus a few unsupported ones that must be
	// rejected identically.
	filePerms := []string{"644", "600", "640", "664", "444", "000", "660", "642", "621"}
	dirPerms := []string{"755", "700", "750", "711", "744", "775", "000", "753", "733"}

	// The mode dimension interposes storage layers shared by all four
	// users' sessions: "wb" adds the ssp.WriteBehind batching layer, and
	// "wbshard" puts that write-behind over a 3-shard replicated
	// shard.Store (R=2, W=R so every ack is fully replicated and reads
	// are deterministic). In every mode each result and error class must
	// STILL match the reference model — the read-after-write coherence
	// proof for the buffering and sharding layers.
	//
	// "lsl" instead turns the session caches on (every step starts from a
	// Refresh, the only cross-client coherence Sharoes offers) and follows
	// each step with an "ls -l" of the touched directory by the same user:
	// ReadDir, then Stat of every entry. That drives the sibling-batched
	// getattr over whatever views the random chmod/chown/ACL history has
	// produced — full, names-only, exec-only, split rows — right after a
	// mutation made through the same cache, and every listed name and
	// attribute must match the model.
	for _, mode := range []string{"", "wb", "wbshard", "lsl"} {
		name := func(scheme string, seed int64) string {
			if mode != "" {
				return fmt.Sprintf("%s/seed%d/%s", scheme, seed, mode)
			}
			return fmt.Sprintf("%s/seed%d", scheme, seed)
		}
		for _, scheme := range []string{"scheme2", "scheme1"} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(name(scheme, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					var store ssp.BlobStore = ssp.NewMemStore()
					if mode == "wbshard" {
						var bks []shard.Backend
						for i := 0; i < 3; i++ {
							bks = append(bks, shard.Backend{ID: fmt.Sprintf("s%d", i), Store: ssp.NewMemStore()})
						}
						sh, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 2})
						if err != nil {
							t.Fatal(err)
						}
						defer sh.Close()
						store = sh
					}
					var eng layout.Engine = layout.NewScheme2(fixReg)
					if scheme == "scheme1" {
						eng = layout.NewScheme1(fixReg)
					}
					if err := migrate.Bootstrap(migrate.Options{Store: store, Registry: fixReg,
						Layout: eng, FSID: "modelfs", RootOwner: "alice", RootGroup: "eng",
						RootPerm: 0o755}); err != nil {
						t.Fatal(err)
					}
					sstore := store
					if mode == "wb" || mode == "wbshard" {
						w := ssp.NewWriteBehind(store, ssp.WriteBehindOptions{})
						defer w.Close()
						sstore = w
					}
					model := refmodel.New("alice", "eng", 0o755, members)

					var cacheBytes int64
					if mode == "lsl" {
						cacheBytes = -1
					}
					reg := obs.NewRegistry()
					sess := make(map[types.UserID]*Session)
					for _, u := range users {
						s, err := Mount(Config{Store: sstore, User: fixUser[u], Registry: fixReg,
							Layout: eng, FSID: "modelfs", CacheBytes: cacheBytes, BlockSize: 48, Metrics: reg})
						if err != nil {
							t.Fatal(err)
						}
						defer s.Close()
						sess[u] = s
					}

					randPath := func() string {
						depth := rng.Intn(3) + 1
						p := ""
						for i := 0; i < depth; i++ {
							p += "/" + names[rng.Intn(len(names))]
						}
						return p
					}
					randData := func() []byte {
						n := rng.Intn(200)
						b := make([]byte, n)
						rng.Read(b)
						return b
					}
					pperm := func(pool []string) types.Perm {
						p, _ := types.ParsePerm(pool[rng.Intn(len(pool))])
						return p
					}

					sameInfo := func(step int, desc string, u types.UserID, path string, got, want vfs.Info) {
						t.Helper()
						if got.Kind != want.Kind || got.Owner != want.Owner ||
							got.Group != want.Group || got.Perm != want.Perm {
							t.Fatalf("step %d: %s: info mismatch %+v vs %+v", step, desc, got, want)
						}
						if want.Kind == types.KindFile && model.CanRead(u, path) &&
							got.Size != want.Size {
							t.Fatalf("step %d: %s: size %d vs %d", step, desc, got.Size, want.Size)
						}
					}
					listLong := func(step int, u types.UserID, s *Session, dir string) {
						t.Helper()
						desc := fmt.Sprintf("%s ls -l %s", u, dir)
						got, ge := s.ReadDir(dir)
						want, we := model.ReadDir(u, dir)
						if errClass(ge) != errClass(we) || fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d: %s: %v, %v vs %v, %v", step, desc, got, ge, want, we)
						}
						for _, n := range want {
							p := strings.TrimSuffix(dir, "/") + "/" + n
							gi, ge := s.Stat(p)
							wi, we := model.Stat(u, p)
							if errClass(ge) != errClass(we) {
								t.Fatalf("step %d: %s: stat %s:\n  sharoes: %v\n  model:   %v", step, desc, p, ge, we)
							}
							if ge == nil {
								sameInfo(step, desc, u, p, gi, wi)
							}
						}
					}

					for step := 0; step < steps; step++ {
						u := users[rng.Intn(len(users))]
						s := sess[u]
						path := randPath()
						if mode == "lsl" {
							s.Refresh()
						}
						opn := rng.Intn(100)
						var desc string
						var gotErr, wantErr error
						switch {
						case opn < 15: // mkdir
							p := pperm(dirPerms)
							desc = fmt.Sprintf("%s mkdir %s %s", u, path, p)
							gotErr = s.Mkdir(path, p)
							wantErr = model.Mkdir(u, path, p)
						case opn < 30: // write
							p := pperm(filePerms)
							data := randData()
							desc = fmt.Sprintf("%s write %s (%d bytes, %s)", u, path, len(data), p)
							gotErr = s.WriteFile(path, data, p)
							wantErr = model.WriteFile(u, path, data, p)
						case opn < 40: // read
							desc = fmt.Sprintf("%s read %s", u, path)
							got, ge := s.ReadFile(path)
							want, we := model.ReadFile(u, path)
							gotErr, wantErr = ge, we
							if ge == nil && we == nil && !bytes.Equal(got, want) {
								t.Fatalf("step %d: %s: content mismatch (%d vs %d bytes)", step, desc, len(got), len(want))
							}
						case opn < 50: // stat
							desc = fmt.Sprintf("%s stat %s", u, path)
							got, ge := s.Stat(path)
							want, we := model.Stat(u, path)
							gotErr, wantErr = ge, we
							if ge == nil && we == nil {
								sameInfo(step, desc, u, path, got, want)
							}
						case opn < 60: // readdir
							desc = fmt.Sprintf("%s readdir %s", u, path)
							got, ge := s.ReadDir(path)
							want, we := model.ReadDir(u, path)
							gotErr, wantErr = ge, we
							if ge == nil && we == nil {
								if len(got) != len(want) {
									t.Fatalf("step %d: %s: %v vs %v", step, desc, got, want)
								}
								for i := range got {
									if got[i] != want[i] {
										t.Fatalf("step %d: %s: %v vs %v", step, desc, got, want)
									}
								}
							}
						case opn < 68: // append
							data := randData()
							desc = fmt.Sprintf("%s append %s (%d bytes)", u, path, len(data))
							gotErr = s.Append(path, data)
							wantErr = model.Append(u, path, data)
						case opn < 78: // chmod
							var p types.Perm
							if rng.Intn(2) == 0 {
								p = pperm(filePerms)
							} else {
								p = pperm(dirPerms)
							}
							desc = fmt.Sprintf("%s chmod %s %s", u, path, p)
							gotErr = s.Chmod(path, p)
							wantErr = model.Chmod(u, path, p)
						case opn < 84: // chown
							newOwner := users[rng.Intn(len(users))]
							groups := []types.GroupID{"eng", "qa", ""}
							newGroup := groups[rng.Intn(len(groups))]
							desc = fmt.Sprintf("%s chown %s %s:%s", u, path, newOwner, newGroup)
							gotErr = s.Chown(path, newOwner, newGroup)
							wantErr = model.Chown(u, path, newOwner, newGroup)
						case opn < 88: // setacl / removeacl
							target := users[rng.Intn(len(users))]
							if rng.Intn(3) == 0 {
								desc = fmt.Sprintf("%s removeacl %s %s", u, path, target)
								gotErr = s.RemoveACL(path, target)
								wantErr = model.RemoveACL(u, path, target)
							} else {
								rightsPool := []types.Triplet{
									types.TripletRead,
									types.TripletRead | types.TripletWrite,
									types.TripletRead | types.TripletExec,
									types.TripletRead | types.TripletWrite | types.TripletExec,
									0,
								}
								rights := rightsPool[rng.Intn(len(rightsPool))]
								desc = fmt.Sprintf("%s setacl %s %s=%s", u, path, target, rights)
								gotErr = s.SetACL(path, target, rights)
								wantErr = model.SetACL(u, path, target, rights)
							}
						case opn < 96: // remove
							desc = fmt.Sprintf("%s remove %s", u, path)
							gotErr = s.Remove(path)
							wantErr = model.Remove(u, path)
						default: // rename
							dst := randPath()
							desc = fmt.Sprintf("%s rename %s -> %s", u, path, dst)
							gotErr = s.Rename(path, dst)
							wantErr = model.Rename(u, path, dst)
						}
						if errClass(gotErr) != errClass(wantErr) {
							t.Fatalf("step %d: %s:\n  sharoes: %v\n  model:   %v", step, desc, gotErr, wantErr)
						}
						if mode == "lsl" {
							dir, _, _ := types.SplitPath(path)
							listLong(step, u, s, dir)
						}
					}
					if n := reg.Counter("client.stat.batch").Value(); mode == "lsl" && n < 20 {
						t.Errorf("only %d sibling batches in %d steps: the mode is not exercising the batch", n, steps)
					}
				})
			}
		}
	}
}
