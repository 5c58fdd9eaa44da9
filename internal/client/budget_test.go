package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/refmodel"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// budgetRow is one way of reaching a file: who asks, and through what kind
// of directory rows. Every row has its own subtree /<tree>/<name>/d holding the
// files f and g, so rows do not disturb one another.
type budgetRow struct {
	name      string
	user      types.UserID
	dirPerm   string // of /<name>/d
	filePerm  string // of f and g
	fileGroup types.GroupID
	// split: under Scheme-2 the user reaches f and g through a split-point
	// row, whose public-key-sealed pointer is one more (never cached)
	// fetch on the final hop.
	split bool
}

var budgetRows = []budgetRow{
	{name: "owner", user: "alice", dirPerm: "755", filePerm: "644"},
	{name: "group", user: "bob", dirPerm: "775", filePerm: "664"},
	{name: "other", user: "dave", dirPerm: "755", filePerm: "644"},
	{name: "execonly", user: "dave", dirPerm: "711", filePerm: "644"},
	{name: "split", user: "carol", dirPerm: "777", filePerm: "664", fileGroup: "qa", split: true},
}

// hops is the number of directories on the way to /<tree>/<row>/d/<file>:
// the root, /<tree>, /<tree>/<row> and /<tree>/<row>/d.
const hops = 4

// budgetOp is one operation of the round-trip table (DESIGN.md §7.15):
// the store reads it may make with every hop cold, and with everything it
// touched before still cached.
type budgetOp struct {
	name       string
	cold, warm int
	split      bool // resolves an existing entry, so a split row adds its pointer fetch
	run        func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (got, want string)
}

func result(data []byte, err error) string { return fmt.Sprintf("%s %q", errClass(err), data) }

var budgetOps = []budgetOp{
	{name: "stat", cold: hops + 1, warm: 0, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, _ int) (string, string) {
			gi, ge := s.Stat(dir + "/f")
			wi, we := m.Stat(u, dir+"/f")
			show := func(size uint64, kind types.ObjKind, owner types.UserID, group types.GroupID, p types.Perm, err error) string {
				return fmt.Sprintf("%s %v %s:%s %s %d", errClass(err), kind, owner, group, p, size)
			}
			return show(gi.Size, gi.Kind, gi.Owner, gi.Group, gi.Perm, ge), show(wi.Size, wi.Kind, wi.Owner, wi.Group, wi.Perm, we)
		}},
	{name: "read", cold: hops + 2, warm: 0, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, _ int) (string, string) {
			got, ge := s.ReadFile(dir + "/f")
			want, we := m.ReadFile(u, dir+"/f")
			return result(got, ge), result(want, we)
		}},
	{name: "open", cold: hops + 2, warm: 0, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, _ int) (string, string) {
			var got []byte
			f, ge := s.OpenFile(dir+"/f", ORead, 0)
			if ge == nil {
				got = f.buf
				f.Close()
			}
			want, we := m.ReadFile(u, dir+"/f")
			return result(got, ge), result(want, we)
		}},
	{name: "append", cold: hops + 2, warm: 0, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			data := []byte(fmt.Sprintf("+%d", i))
			return errClass(s.Append(dir+"/f", data)), errClass(m.Append(u, dir+"/f", data))
		}},
	// An owner's write also re-seals the metadata (size, mtime), so the
	// copy it had cached is gone by the next one: warm, that is one fetch.
	{name: "overwrite", cold: hops + 1, warm: 1, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			data := bytes.Repeat([]byte{byte('a' + i)}, 70+i)
			return errClass(s.WriteFile(dir+"/f", data, 0o644)), errClass(m.WriteFile(u, dir+"/f", data, 0o644))
		}},
	// Creating: the hops, then the writer tables the walk did not already
	// read (warm they are cached, and the parent's view was refreshed in
	// place by the previous write).
	{name: "create", cold: hops + 1, warm: 0,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			p := fmt.Sprintf("%s/n%d", dir, i)
			return errClass(s.WriteFile(p, []byte(p), 0o644)), errClass(m.WriteFile(u, p, []byte(p), 0o644))
		}},
	// Removing: the hops, the child's metadata + manifest, and (cold) the
	// parent's writer tables. g<i> is a distinct file every time.
	{name: "remove", cold: hops + 2, warm: 1, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			p := fmt.Sprintf("%s/g%d", dir, i)
			return errClass(s.Remove(p)), errClass(m.Remove(u, p))
		}},
}

// TestRoundTripBudget pins the per-operation receive table: for every
// operation, cold and warm, under each cache setting and both schemes, and
// for every kind of row a path can lead through, the store reads made stay
// within budget, no key is fetched twice inside one operation, and the
// result is what the reference filesystem gives the same user.
func TestRoundTripBudget(t *testing.T) {
	members := refmodel.Memberships{}
	members.AddMember("eng", "alice")
	members.AddMember("eng", "bob")
	members.AddMember("qa", "carol")

	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		scheme2 := strings.HasSuffix(t.Name(), "scheme2")
		for ci, cacheBytes := range []int64{-1, 16 << 10, 0} {
			model := refmodel.New("alice", "eng", 0o755, members)
			alice := w.as("alice")
			root := fmt.Sprintf("/tree%d", ci) // a fresh tree per cache setting
			both := func(what string, got, want error) {
				t.Helper()
				if got != nil || want != nil {
					t.Fatalf("set-up %s: sharoes %v, model %v", what, got, want)
				}
			}
			both("mkdir", alice.Mkdir(root, 0o755), model.Mkdir("alice", root, 0o755))
			// 2 warm-ups + 2 measured invocations use g0..g3.
			const gFiles = 4
			for _, row := range budgetRows {
				top := root + "/" + row.name
				dir := top + "/d"
				both("mkdir", alice.Mkdir(top, 0o755), model.Mkdir("alice", top, 0o755))
				both("mkdir", alice.Mkdir(dir, 0o755), model.Mkdir("alice", dir, 0o755))
				files := []string{"f"}
				for i := 0; i < gFiles; i++ {
					files = append(files, fmt.Sprintf("g%d", i))
				}
				for _, name := range files {
					p := dir + "/" + name
					data := bytes.Repeat([]byte(name[:1]), 100) // two 64-byte blocks, the second partial
					fp := perm(t, row.filePerm)
					both("write", alice.WriteFile(p, data, fp), model.WriteFile("alice", p, data, fp))
					if row.fileGroup != "" {
						both("chown", alice.Chown(p, "", row.fileGroup), model.Chown("alice", p, "", row.fileGroup))
					}
				}
				dp := perm(t, row.dirPerm)
				both("chmod", alice.Chmod(dir, dp), model.Chmod("alice", dir, dp))
			}

			for _, row := range budgetRows {
				dir := root + "/" + row.name + "/d"
				for _, op := range budgetOps {
					t.Run(fmt.Sprintf("cache%d/%s/%s", cacheBytes, row.name, op.name), func(t *testing.T) {
						extra := 0
						if row.split && op.split && scheme2 {
							extra = 1
						}
						measure := func(s *Session, what string, i, budget int) {
							t.Helper()
							cs.take()
							got, want := op.run(s, model, row.user, dir, i)
							reads := cs.takeReads()
							if got != want {
								t.Errorf("%s: sharoes %s, model %s", what, got, want)
							}
							if len(reads) > budget+extra {
								t.Errorf("%s: %d store reads, budget %d: %v", what, len(reads), budget+extra, reads)
							}
							// The budget is tight where nothing is denied.
							if row.name == "owner" && len(reads) != budget {
								t.Errorf("%s: %d store reads, want exactly %d: %v", what, len(reads), budget, reads)
							}
							seen := map[string]bool{}
							for _, call := range reads {
								for _, k := range call {
									if seen[k] {
										t.Errorf("%s: %s fetched twice: %v", what, k, reads)
									}
									seen[k] = true
								}
							}
						}

						cold := w.mountFresh(row.user, cacheBytes)
						defer cold.Close()
						measure(cold, "cold", 0, op.cold)

						// Warm: the session has stat'ed and read the file and
						// done this very operation once before.
						warm := w.mountFresh(row.user, cacheBytes)
						defer warm.Close()
						budgetOps[0].run(warm, model, row.user, dir, 0)
						budgetOps[1].run(warm, model, row.user, dir, 0)
						op.run(warm, model, row.user, dir, 1)
						budget := op.warm
						if cacheBytes == 0 {
							budget = op.cold
						}
						measure(warm, "warm", 2, budget)
					})
				}
			}
		}
	})
}

// TestPrefetchedTableIsVerifiedLikeAFetchedOne: the table view that now
// rides a cold hop's metadata fetch is opened by the same call, at the
// same point, as when it was fetched on its own — a tampered one fails
// the hop with the same error and leaves nothing of itself behind, a
// missing one reads as an empty directory, and once the SSP behaves the
// same session resolves the path.
func TestPrefetchedTableIsVerifiedLikeAFetchedOne(t *testing.T) {
	fixture(t)
	for _, cacheBytes := range []int64{-1, 0} {
		t.Run(fmt.Sprintf("cache%d", cacheBytes), func(t *testing.T) {
			fs := ssp.NewFaultStore(ssp.NewMemStore())
			cs := &countingStore{BlobStore: fs}
			w := newWorld(t, layout.NewScheme2(fixReg), cs)
			paths := populate(t, w, "/d", 3, "644")
			info, err := w.as("alice").Stat("/d")
			if err != nil {
				t.Fatal(err)
			}
			table := fmt.Sprintf("t/%d/", uint64(info.Inode))

			s := w.mountFresh("bob", cacheBytes)
			defer s.Close()
			fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: table})
			cs.take()
			if _, err := s.Stat(paths[0]); !errors.Is(err, types.ErrTampered) {
				t.Fatalf("stat through a tampered table: %v", err)
			}
			// Root hop, then /d's metadata + table in one fetch: the failure
			// is found without a third.
			if calls, batches := cs.take(); calls != 2 || len(batches) != 2 || batches[1] != 2 {
				t.Errorf("%d calls, batches %v; want two two-key hops", calls, batches)
			}
			for _, prefix := range []string{ckView + table, ckRef + "d/" + table[2:]} {
				if n := cachedUnder(s, prefix); n != 0 {
					t.Errorf("%d cache entries under %q after a tampered table", n, prefix)
				}
			}

			// Withheld instead of corrupted: an empty directory, as before.
			fs.ClearRules()
			fs.AddRule(ssp.FaultRule{Mode: ssp.FaultDrop, NS: wire.NSData, KeyPart: table})
			if _, err := s.Stat(paths[0]); !errors.Is(err, types.ErrNotExist) {
				t.Errorf("stat through a withheld table: %v", err)
			}
			if n := cachedUnder(s, ckRef+"d/"+table[2:]); n != 0 {
				t.Errorf("%d refs cached out of a withheld table", n)
			}

			fs.ClearRules()
			s.Refresh()
			if _, err := s.Stat(paths[0]); err != nil {
				t.Errorf("after the SSP heals: %v", err)
			}
			if got, err := s.ReadFile(paths[1]); err != nil || string(got) != paths[1] {
				t.Errorf("after the SSP heals, read = %q, %v", got, err)
			}
		})
	}
}

// cachedUnder counts the session-cache entries whose key starts with prefix.
func cachedUnder(s *Session, prefix string) int {
	before := s.cache.Len()
	s.cache.DeletePrefix(prefix)
	return before - s.cache.Len()
}

// TestFetchCountsAndSpans: client.op.<op>.fetches counts the store reads
// made under the op, and every one of them is a client.fetch span under
// the op's root carrying its key count.
func TestFetchCountsAndSpans(t *testing.T) {
	fixture(t)
	cs := &countingStore{BlobStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), cs)
	paths := populate(t, w, "/d", 2, "644")

	reg, tracer := obs.NewRegistry(), obs.NewTracer("client")
	s, err := Mount(Config{Store: cs, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
		FSID: "testfs", CacheBytes: -1, BlockSize: 64, Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs.take()
	if err := s.Append(paths[0], []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(paths[0]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("client.op.append").Value(); got != 1 {
		t.Errorf("client.op.append = %d", got)
	}
	// Two cold hops, metadata + manifest, the tail block.
	if got := reg.Counter("client.op.append.fetches").Value(); got != 4 {
		t.Errorf("client.op.append.fetches = %d, want 4", got)
	}
	if got := reg.Counter("client.op.stat.fetches").Value(); got != 0 {
		t.Errorf("client.op.stat.fetches = %d for a warm stat, want 0", got)
	}
	var root *obs.Span
	var keys []string
	for _, sp := range tracer.Spans() {
		if sp.Name == "client.append" {
			root = sp
		}
	}
	for _, sp := range tracer.Spans() {
		if sp.Name != "client.fetch" {
			continue
		}
		if root == nil || sp.Trace != root.Trace {
			t.Errorf("client.fetch span outside the append's trace: %+v", sp)
		}
		for _, a := range sp.Attrs() {
			if a.Key == "keys" {
				keys = append(keys, a.Val)
			}
		}
	}
	if got := strings.Join(keys, ","); got != "2,2,2,1" {
		t.Errorf("client.fetch key counts = %s, want 2,2,2,1", got)
	}
}

var statSink vfs.Info

// BenchmarkStatWarm is the cache-hit getattr: a depth-2 path resolved and
// answered entirely from an unlimited cache — the operation createlist_wan
// reports as read_p50_ms, and the one every batching change must leave as
// small as it found it.
func BenchmarkStatWarm(b *testing.B) {
	fixture(b)
	store := ssp.NewMemStore()
	eng := layout.NewScheme2(fixReg)
	if err := migrate.Bootstrap(migrate.Options{Store: store, Registry: fixReg, Layout: eng,
		FSID: "benchfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755}); err != nil {
		b.Fatal(err)
	}
	s, err := Mount(Config{Store: store, User: fixUser["alice"], Registry: fixReg, Layout: eng,
		FSID: "benchfs", CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Mkdir("/dir", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := s.WriteFile("/dir/file", []byte("content"), 0o644); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Stat("/dir/file"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if statSink, err = s.Stat("/dir/file"); err != nil {
			b.Fatal(err)
		}
	}
}
