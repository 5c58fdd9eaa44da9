package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// countingStore counts every call a session makes on its store, the
// number of keys in each BatchGet, and which keys each read call named.
type countingStore struct {
	ssp.BlobStore
	mu        sync.Mutex
	calls     int
	batchKeys []int
	reads     [][]string // per read call (Get, BatchGet, List): "<ns>/<key>" of everything it asked for
}

func (c *countingStore) count(batchKeys int, read ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if batchKeys > 0 {
		c.batchKeys = append(c.batchKeys, batchKeys)
	}
	if len(read) > 0 {
		c.reads = append(c.reads, read)
	}
}

// take returns and resets the counters.
func (c *countingStore) take() (calls int, batchKeys []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	calls, batchKeys = c.calls, c.batchKeys
	c.calls, c.batchKeys, c.reads = 0, nil, nil
	return calls, batchKeys
}

// takeReads returns the keys of every read call since the last take, and
// resets the counters.
func (c *countingStore) takeReads() [][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	reads := c.reads
	c.calls, c.batchKeys, c.reads = 0, nil, nil
	return reads
}

func (c *countingStore) Get(ns wire.NS, key string) ([]byte, error) {
	c.count(0, ns.String()+"/"+key)
	return c.BlobStore.Get(ns, key)
}
func (c *countingStore) Put(ns wire.NS, key string, val []byte) error {
	c.count(0)
	return c.BlobStore.Put(ns, key, val)
}
func (c *countingStore) Delete(ns wire.NS, key string) error {
	c.count(0)
	return c.BlobStore.Delete(ns, key)
}
func (c *countingStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	c.count(0, ns.String()+"/"+prefix+"*")
	return c.BlobStore.List(ns, prefix)
}
func (c *countingStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.NS.String() + "/" + it.Key
	}
	c.count(len(items), keys...)
	return c.BlobStore.BatchGet(items)
}
func (c *countingStore) BatchPut(items []wire.KV) error {
	c.count(0)
	return c.BlobStore.BatchPut(items)
}

// countedSchemes is schemes over a counting store.
func countedSchemes(t *testing.T, body func(t *testing.T, w *world, cs *countingStore)) {
	fixture(t)
	for _, name := range []string{"scheme2", "scheme1"} {
		t.Run(name, func(t *testing.T) {
			var eng layout.Engine = layout.NewScheme2(fixReg)
			if name == "scheme1" {
				eng = layout.NewScheme1(fixReg)
			}
			cs := &countingStore{BlobStore: ssp.NewMemStore()}
			body(t, newWorld(t, eng, cs), cs)
		})
	}
}

// populate makes dir with n small files f00.. as alice and returns their
// paths in listing order.
func populate(t *testing.T, w *world, dir string, n int, p string) []string {
	t.Helper()
	alice := w.as("alice")
	if err := alice.Mkdir(dir, perm(t, "755")); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/f%02d", dir, i)
		if err := alice.WriteFile(paths[i], []byte(paths[i]), perm(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// lsl is "ls -l" plus a read of every entry, rendered as one line per
// entry so two sessions' views of a directory can be compared verbatim.
func lsl(s *Session, dir string) []string {
	names, err := s.ReadDir(dir)
	if err != nil {
		return []string{"readdir: " + errClass(err)}
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		info, serr := s.Stat(dir + "/" + n)
		data, rerr := s.ReadFile(dir + "/" + n)
		out = append(out, fmt.Sprintf("%s stat=%s %+v read=%s %q", n, errClass(serr), info, errClass(rerr), data))
	}
	return out
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d\n got: %q\nwant: %q", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got: %s\nwant: %s", what, got[i], want[i])
		}
	}
}

// TestListThenStatIsOneBatch: after ReadDir, getattr of every entry costs
// one store call for the whole directory, and ReadDir itself costs what it
// always did (the view, nothing else).
func TestListThenStatIsOneBatch(t *testing.T) {
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		paths := populate(t, w, "/d", 20, "644")
		if err := w.as("alice").Mkdir("/d/sub", perm(t, "755")); err != nil {
			t.Fatal(err)
		}
		want := lsl(w.mountFresh("alice", 0), "/d") // unbatched: no cache, no mark

		s := w.mountFresh("alice", -1)
		defer s.Close()
		if _, err := s.Stat("/d"); err != nil { // warm the path down to /d
			t.Fatal(err)
		}
		cs.take()
		names, err := s.ReadDir("/d")
		if err != nil || len(names) != 21 {
			t.Fatalf("readdir: %v, %v", names, err)
		}
		if calls, batches := cs.take(); calls != 1 || len(batches) != 1 || batches[0] != 1 {
			t.Errorf("ReadDir cost %d calls, batches %v; want exactly the view fetch", calls, batches)
		}
		for _, p := range append(paths, "/d/sub") {
			if _, err := s.Stat(p); err != nil {
				t.Fatal(err)
			}
		}
		calls, batches := cs.take()
		if calls != 1 || len(batches) != 1 || batches[0] != 2*21 {
			t.Errorf("Stat of 21 listed entries cost %d calls, batches %v; want one BatchGet of 42 keys", calls, batches)
		}
		// Same answers as the unbatched path; only data blocks are left to fetch.
		sameLines(t, "batched vs unbatched ls -l", lsl(s, "/d"), want)
	})
}

// TestNamesOnlyListingFetchesNothing: ls without -l never triggers a batch,
// and neither does a getattr in a directory nobody listed.
func TestNamesOnlyListingFetchesNothing(t *testing.T) {
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		paths := populate(t, w, "/d", 5, "644")
		s := w.mountFresh("alice", -1)
		defer s.Close()
		cs.take()
		if _, err := s.Stat(paths[0]); err != nil { // not listed yet
			t.Fatal(err)
		}
		if _, err := s.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		// The unlisted stat walks two cold directories (metadata + table
		// view each) and fetches its own metadata + manifest; neither
		// listing adds a fetch, let alone a sibling batch.
		calls, batches := cs.take()
		if calls != 3 || len(batches) != 3 || batches[0] != 2 || batches[1] != 2 || batches[2] != 2 {
			t.Errorf("%d calls, batches %v; want the unlisted stat's three two-key fetches only", calls, batches)
		}
	})
}

// TestLargeDirectoryBatchesInChunks: a directory larger than one chunk is
// fetched in ceil(n/65) round trips — each miss carries the 64 that follow.
func TestLargeDirectoryBatchesInChunks(t *testing.T) {
	fixture(t)
	cs := &countingStore{BlobStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), cs)
	alice := w.as("alice")
	if err := alice.Mkdir("/big", perm(t, "755")); err != nil {
		t.Fatal(err)
	}
	const n = 140
	for i := 0; i < n; i++ {
		if err := alice.Create(fmt.Sprintf("/big/f%03d", i), perm(t, "644")); err != nil {
			t.Fatal(err)
		}
	}
	s := w.mountFresh("alice", -1)
	defer s.Close()
	names, err := s.ReadDir("/big")
	if err != nil || len(names) != n {
		t.Fatalf("readdir: %d names, %v", len(names), err)
	}
	cs.take()
	for _, name := range names {
		if _, err := s.Stat("/big/" + name); err != nil {
			t.Fatal(err)
		}
	}
	calls, batches := cs.take()
	if calls != 3 || len(batches) != 3 || batches[0] != 2*65 || batches[1] != 2*65 || batches[2] != 2*10 {
		t.Errorf("140 entries: %d calls, batches %v; want 130+130+20 keys", calls, batches)
	}
}

// TestSiblingBatchRespectsCacheBudget: a disabled cache never batches (it
// could not keep what it fetched), and a small finite one batches only
// what it can keep and never at the target's expense.
func TestSiblingBatchRespectsCacheBudget(t *testing.T) {
	for budget, want := range map[int64]int{0: 0, -1: 64, 1 << 30: 64, 16 << 10: 8, 2047: 0} {
		if got := siblingChunk(budget); got != want {
			t.Errorf("siblingChunk(%d) = %d, want %d", budget, got, want)
		}
	}
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		paths := populate(t, w, "/d", 20, "644")
		want := lsl(w.mountFresh("alice", -1), "/d")

		off := w.mountFresh("alice", 0)
		defer off.Close()
		cs.take()
		sameLines(t, "cache disabled", lsl(off, "/d"), want)
		_, batches := cs.take()
		for _, k := range batches {
			if k > 3 { // getattr asks for 2 keys, a read for 3: metadata, manifest, tail
				t.Fatalf("disabled cache issued a %d-key batch: %v", k, batches)
			}
		}

		small := w.mountFresh("alice", 16<<10)
		defer small.Close()
		if _, err := small.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		cs.take()
		for _, p := range paths {
			if _, err := small.Stat(p); err != nil {
				t.Fatal(err)
			}
			// The object just asked for is still cached: siblings were
			// inserted before it, never over it.
			cs.take()
			if _, err := small.Stat(p); err != nil {
				t.Fatal(err)
			}
			if calls, _ := cs.take(); calls != 0 {
				t.Fatalf("repeat Stat(%s) cost %d store calls: target evicted by its own siblings", p, calls)
			}
		}
		small.Refresh()
		if _, err := small.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		cs.take()
		if _, err := small.Stat(paths[0]); err != nil {
			t.Fatal(err)
		}
		if _, batches := cs.take(); len(batches) != 1 || batches[0] != 2*(1+8) {
			t.Errorf("16 KiB cache: batches %v, want one of 18 keys (target + 8 siblings)", batches)
		}
		sameLines(t, "16 KiB cache", lsl(small, "/d"), want)
	})
}

// TestSiblingBatchPermissionMatrix: whatever view of a directory a user
// holds — full, names-only, exec-only, with split-point rows — "ls -l"
// through the batch gives exactly what the unbatched path gives.
func TestSiblingBatchPermissionMatrix(t *testing.T) {
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		alice := w.as("alice")
		mk := func(dir, dperm string) {
			t.Helper()
			populate(t, w, dir, 6, "644")
			for name, p := range map[string]string{"priv": "600", "grp": "640", "sub": ""} {
				var err error
				if p == "" {
					err = alice.Mkdir(dir+"/"+name, perm(t, "750"))
				} else {
					err = alice.WriteFile(dir+"/"+name, []byte(name), perm(t, p))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := alice.Chmod(dir, perm(t, dperm)); err != nil {
				t.Fatal(err)
			}
		}
		mk("/open", "755")   // everyone: full view
		mk("/group", "750")  // others: nothing (bob, group eng, has r-x on all five)
		mk("/names", "754")  // others: names-only view — ls works, ls -l cannot traverse
		mk("/xonly", "751")  // others: exec-only view — no ls, stat by name works
		mk("/splits", "755") // a split-point row among ordinary ones
		if err := alice.Chown("/splits/sub", "alice", "qa"); err != nil {
			t.Fatal(err)
		}

		for _, u := range []types.UserID{"alice", "bob", "carol", "dave"} {
			for _, dir := range []string{"/open", "/group", "/names", "/xonly", "/splits"} {
				plain := w.mountFresh(u, 0)
				want := lsl(plain, dir)
				for _, name := range []string{"f00", "priv", "sub"} { // by name, for exec-only
					_, err := plain.Stat(dir + "/" + name)
					want = append(want, name+" stat="+errClass(err))
				}
				plain.Close()

				cs.take()
				cached := w.mountFresh(u, -1)
				got := lsl(cached, dir)
				for _, name := range []string{"f00", "priv", "sub"} {
					_, err := cached.Stat(dir + "/" + name)
					got = append(got, name+" stat="+errClass(err))
				}
				cached.Close()
				sameLines(t, fmt.Sprintf("%s in %s", u, dir), got, want)

				_, batches := cs.take()
				batched := false
				for _, k := range batches {
					batched = batched || k == 2*9 || k == 2*8
				}
				// Full views batch (9 rows; 8 when the split row is skipped
				// for a user who travels through the pointer); names-only
				// and exec-only views never do.
				fullView := u == "alice" || u == "bob" || dir == "/open" || dir == "/splits"
				if batched != fullView {
					t.Errorf("%s in %s: batched=%v (batches %v), want %v", u, dir, batched, batches, fullView)
				}
			}
		}
	})
}

// TestTamperedSiblingNeverFailsNeighbours: the SSP corrupts one sibling's
// metadata and another's manifest. The batch drops exactly those two; the
// honest entries are served from the batch, and each corrupted one reports
// its own error on its own getattr or read — then heals when the SSP
// behaves, because nothing unverified was ever cached.
func TestTamperedSiblingNeverFailsNeighbours(t *testing.T) {
	fixture(t)
	fs := ssp.NewFaultStore(ssp.NewMemStore())
	cs := &countingStore{BlobStore: fs}
	w := newWorld(t, layout.NewScheme2(fixReg), cs)
	paths := populate(t, w, "/d", 10, "644")
	ino := func(p string) types.Inode {
		info, err := w.as("alice").Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return info.Inode
	}
	badMeta, badMan := paths[3], paths[5]
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSMeta, KeyPart: w.eng.MetaKey(ino(badMeta), "o")})
	fs.AddRule(ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: meta.ManifestKey(ino(badMan))})

	reg, tracer := obs.NewRegistry(), obs.NewTracer("client")
	s, err := Mount(Config{Store: cs, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
		FSID: "testfs", CacheBytes: -1, BlockSize: 64, Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ReadDir("/d"); err != nil {
		t.Fatal(err)
	}
	cs.take()
	if _, err := s.Stat(paths[0]); err != nil {
		t.Fatalf("honest target failed by tampered neighbours: %v", err)
	}
	if got := reg.Counter("client.stat.batch").Value(); got != 1 {
		t.Errorf("client.stat.batch = %d, want 1", got)
	}
	if got := reg.Counter("client.stat.batch.entries").Value(); got != 7 {
		t.Errorf("client.stat.batch.entries = %d, want 7", got)
	}
	if got := reg.Counter("client.stat.batch.rejected").Value(); got != 2 {
		t.Errorf("client.stat.batch.rejected = %d, want 2", got)
	}
	var statSpan, batchSpan *obs.Span
	for _, sp := range tracer.Spans() {
		switch sp.Name {
		case "client.stat":
			statSpan = sp
		case "client.stat.batch":
			batchSpan = sp
		}
	}
	if statSpan == nil || batchSpan == nil || batchSpan.Parent != statSpan.ID {
		t.Errorf("client.stat.batch span not under the triggering client.stat: %+v / %+v", batchSpan, statSpan)
	}

	for i, p := range paths {
		if p == badMeta || p == badMan || i == 0 {
			continue
		}
		if _, err := s.Stat(p); err != nil {
			t.Errorf("stat %s: %v", p, err)
		}
		if got, err := s.ReadFile(p); err != nil || string(got) != p {
			t.Errorf("read %s = %q, %v", p, got, err)
		}
	}
	// The sibling batch, then one block fetch per honest file.
	if calls, batches := cs.take(); calls != 1+7 || len(batches) != 1+7 || batches[0] != 2*10 {
		t.Errorf("honest entries cost %d calls, batches %v; want the 20-key sibling batch plus 7 block fetches", calls, batches)
	}
	if _, err := s.Stat(badMeta); !errors.Is(err, types.ErrTampered) {
		t.Errorf("stat of tampered-metadata sibling: %v", err)
	}
	if _, err := s.ReadFile(badMeta); !errors.Is(err, types.ErrTampered) {
		t.Errorf("read of tampered-metadata sibling: %v", err)
	}
	if _, err := s.ReadFile(badMan); !errors.Is(err, types.ErrTampered) {
		t.Errorf("read of tampered-manifest sibling: %v", err)
	}
	// getattr is lenient about manifests (size falls back to the metadata),
	// batched or not.
	if _, err := s.Stat(badMan); err != nil {
		t.Errorf("stat of tampered-manifest sibling: %v", err)
	}
	fs.ClearRules()
	for _, p := range []string{badMeta, badMan} {
		if got, err := s.ReadFile(p); err != nil || string(got) != p {
			t.Errorf("after the SSP heals, read %s = %q, %v", p, got, err)
		}
	}
}

// injectStore adds an item nobody asked for to every BatchGet reply.
type injectStore struct{ ssp.BlobStore }

func (s injectStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	out, err := s.BlobStore.BatchGet(items)
	return append(out, wire.KV{NS: wire.NSMeta, Key: "m/1/unasked", Val: []byte("x")}), err
}

// TestUnrequestedBatchItemIsTampering: replies are matched by (namespace,
// key); an item outside the request fails the operation.
func TestUnrequestedBatchItemIsTampering(t *testing.T) {
	asked := []wire.KV{{NS: wire.NSMeta, Key: "k"}, {NS: wire.NSData, Key: "gone"}}
	idx, err := indexReply(asked, []layout.Reply{{NS: wire.NSMeta, Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.get(wire.NSMeta, "k"); !ok {
		t.Error("returned (empty) blob reported missing")
	}
	if _, ok := idx.get(wire.NSData, "gone"); ok {
		t.Error("omitted blob reported present")
	}
	if _, ok := idx.get(wire.NSData, "k"); ok {
		t.Error("same key in another namespace reported present")
	}
	if _, err := indexReply(asked, []layout.Reply{{NS: wire.NSData, Key: "k"}}); !errors.Is(err, types.ErrTampered) {
		t.Errorf("same key, wrong namespace: %v", err)
	}

	fixture(t)
	mem := ssp.NewMemStore()
	w := newWorld(t, layout.NewScheme2(fixReg), mem)
	populate(t, w, "/d", 2, "644")
	s, err := Mount(Config{Store: injectStore{mem}, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
		FSID: "testfs", CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Stat("/d/f00"); !errors.Is(err, types.ErrTampered) {
		t.Errorf("stat over a padded reply: %v", err)
	}
	if err := s.Create("/d/new", perm(t, "644")); !errors.Is(err, types.ErrTampered) {
		t.Errorf("create (parent tables) over a padded reply: %v", err)
	}
}
