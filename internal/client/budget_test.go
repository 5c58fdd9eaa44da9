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
// files f (two blocks, the second partial), s (one partial block) and g,
// so rows do not disturb one another.
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

// readOp, openOp and appendOp are the content operations on one file of
// the row's directory.
func readOp(file string) func(*Session, *refmodel.Model, types.UserID, string, int) (string, string) {
	return func(s *Session, m *refmodel.Model, u types.UserID, dir string, _ int) (string, string) {
		got, ge := s.ReadFile(dir + file)
		want, we := m.ReadFile(u, dir+file)
		return result(got, ge), result(want, we)
	}
}

func openOp(file string) func(*Session, *refmodel.Model, types.UserID, string, int) (string, string) {
	return func(s *Session, m *refmodel.Model, u types.UserID, dir string, _ int) (string, string) {
		var got []byte
		f, ge := s.OpenFile(dir+file, ORead, 0)
		if ge == nil {
			got = f.buf
			f.Close()
		}
		want, we := m.ReadFile(u, dir+file)
		return result(got, ge), result(want, we)
	}
}

func appendOp(file string) func(*Session, *refmodel.Model, types.UserID, string, int) (string, string) {
	return func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
		data := []byte(fmt.Sprintf("+%d", i))
		return errClass(s.Append(dir+file, data)), errClass(m.Append(u, dir+file, data))
	}
}

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
	// Reading: metadata, manifest and tail ride one fetch, which is all of
	// the one-block file; the two-block file's full block is a second.
	{name: "read", cold: hops + 2, warm: 0, split: true, run: readOp("/f")},
	{name: "read1", cold: hops + 1, warm: 0, split: true, run: readOp("/s")},
	{name: "open", cold: hops + 2, warm: 0, split: true, run: openOp("/f")},
	{name: "open1", cold: hops + 1, warm: 0, split: true, run: openOp("/s")},
	// Appending touches the tail alone, however many blocks precede it.
	{name: "append", cold: hops + 1, warm: 0, split: true, run: appendOp("/f")},
	{name: "append1", cold: hops + 1, warm: 0, split: true, run: appendOp("/s")},
	// An owner's write also re-seals the metadata (size, mtime), so the
	// copy it had cached is gone by the next one: warm, that is one fetch.
	{name: "overwrite", cold: hops + 1, warm: 1, split: true,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			data := bytes.Repeat([]byte{byte('a' + i)}, 70+i)
			return errClass(s.WriteFile(dir+"/f", data, 0o644)), errClass(m.WriteFile(u, dir+"/f", data, 0o644))
		}},
	// Creating: the hops — the last one brings the parent's writer tables
	// with it (warm they are cached, and the parent's view was refreshed in
	// place by the previous write).
	{name: "create", cold: hops, warm: 0,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			p := fmt.Sprintf("%s/n%d", dir, i)
			return errClass(s.WriteFile(p, []byte(p), 0o644)), errClass(m.WriteFile(u, p, []byte(p), 0o644))
		}},
	{name: "mkdir", cold: hops, warm: 0,
		run: func(s *Session, m *refmodel.Model, u types.UserID, dir string, i int) (string, string) {
			p := fmt.Sprintf("%s/sub%d", dir, i)
			return errClass(s.Mkdir(p, 0o755)), errClass(m.Mkdir(u, p, 0o755))
		}},
	// Removing: the hops (writer tables on the last) and the child's
	// metadata + manifest. g<i> is a distinct file every time.
	{name: "remove", cold: hops + 1, warm: 1, split: true,
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
				files := []string{"f", "s"}
				for i := 0; i < gFiles; i++ {
					files = append(files, fmt.Sprintf("g%d", i))
				}
				for _, name := range files {
					p := dir + "/" + name
					data := bytes.Repeat([]byte(name[:1]), 100) // two 64-byte blocks, the second partial
					if name == "s" {
						data = data[:40] // one partial block, appends included
					}
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
// same session resolves the path. The same holds for the other blobs that
// ride: a file's tail block on the fetch of its metadata, and a
// directory's writer tables on a writer's final hop or on the fetch of the
// object being removed.
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

			// A ridden tail: tampered or withheld, the read fails where
			// the block fetch used to fail, without a fetch more, and
			// nothing of it is cached.
			for _, mode := range []ssp.FaultMode{ssp.FaultTamper, ssp.FaultDrop} {
				s.Refresh()
				fs.AddRule(ssp.FaultRule{Mode: mode, NS: wire.NSData, KeyPart: "/tail"})
				cs.take()
				if got, err := s.ReadFile(paths[2]); !errors.Is(err, types.ErrTampered) {
					t.Errorf("read over a tail with fault %v: %q, %v", mode, got, err)
				}
				if calls, batches := cs.take(); calls != 3 || len(batches) != 3 || batches[2] != 3 {
					t.Errorf("fault %v: %d calls, batches %v; want two hops and one three-key fetch", mode, calls, batches)
				}
				if n := cachedUnder(s, ckBlock); n != 0 {
					t.Errorf("fault %v: %d blocks cached", mode, n)
				}
				fs.ClearRules()
			}
			s.Refresh()
			if got, err := s.ReadFile(paths[2]); err != nil || string(got) != paths[2] {
				t.Errorf("after the SSP heals, read = %q, %v", got, err)
			}

			// Ridden writer tables: the group view of /d rides alice's
			// final hop (a cold create) or the fetch of the file being
			// removed (the hop warm), and is opened where it always was,
			// in loadParentTables: a tampered one fails the mutation, is
			// not cached, and nothing is written.
			a := w.mountFresh("alice", cacheBytes)
			defer a.Close()
			groupTable := table + "g"
			stored := func() int {
				kvs, err := fs.Inner.List(wire.NSMeta, "m/")
				if err != nil {
					t.Fatal(err)
				}
				return len(kvs)
			}
			before := stored()
			fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: groupTable})
			cs.take()
			if err := a.WriteFile("/d/new", []byte("new"), 0o644); !errors.Is(err, types.ErrTampered) {
				t.Errorf("create over a tampered writer table: %v", err)
			}
			if calls, batches := cs.take(); calls != 2 || len(batches) != 2 || batches[1] != 4 {
				t.Errorf("cold create: %d calls, batches %v; want the root hop and one four-key final hop", calls, batches)
			}
			if _, err := a.Stat(paths[0]); err != nil { // warms /d: its metadata, alice's view, the row
				t.Fatal(err)
			}
			cs.take()
			if err := a.Remove(paths[1]); !errors.Is(err, types.ErrTampered) {
				t.Errorf("remove over a tampered writer table: %v", err)
			}
			if cacheBytes != 0 {
				if calls, batches := cs.take(); calls != 1 || len(batches) != 1 || batches[0] != 4 {
					t.Errorf("warm-hop remove: %d calls, batches %v; want the child's metadata + manifest and two writer tables in one fetch", calls, batches)
				}
			}
			if n := cachedUnder(a, ckWTable+groupTable); n != 0 {
				t.Errorf("%d cache entries for a tampered writer table", n)
			}
			if after := stored(); after != before {
				t.Errorf("%d metadata blobs stored, %d before the refused mutations", after, before)
			}
			fs.ClearRules()
			if err := a.Remove(paths[1]); err != nil {
				t.Errorf("remove after the SSP heals: %v", err)
			}
			if err := a.WriteFile("/d/new", []byte("new"), 0o644); err != nil {
				t.Errorf("create after the SSP heals: %v", err)
			}
			s.Refresh()
			if got, err := s.ReadFile("/d/new"); err != nil || string(got) != "new" {
				t.Errorf("bob reads what alice created: %q, %v", got, err)
			}
			if _, err := s.Stat(paths[1]); !errors.Is(err, types.ErrNotExist) {
				t.Errorf("bob stats what alice removed: %v", err)
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
	// Two cold hops, then metadata + manifest + tail block.
	if got := reg.Counter("client.op.append.fetches").Value(); got != 3 {
		t.Errorf("client.op.append.fetches = %d, want 3", got)
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
	if got := strings.Join(keys, ","); got != "2,2,3" {
		t.Errorf("client.fetch key counts = %s, want 2,2,3", got)
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
