package client

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// gatedStore is an ssp.Sender over a MemStore. While hold is set it keeps
// every batch it is sent until the test lets it land: release applies a
// batch and answers it, fail answers it with an error and applies
// nothing. Otherwise it applies a batch as it is sent and answers it
// after delay (at once for a zero delay). Reads go straight to the
// MemStore.
type gatedStore struct {
	*ssp.MemStore
	mu     sync.Mutex
	hold   bool
	refuse error         // when set, every batch is answered with it a millisecond after it is sent, and nothing applied
	delay  time.Duration // the n'th batch is answered after (1 + n%3) delays
	n      int
	sent   []*gatedBatch // every batch sent while holding, in send order
}

type gatedBatch struct {
	items    []wire.KV
	reply    chan error
	answered bool
}

func (g *gatedStore) SendBatch(items []wire.KV) <-chan error {
	b := &gatedBatch{items: items, reply: make(chan error, 1)}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	switch {
	case g.refuse != nil:
		// Answered after the write returns, as a reply over a slow link
		// is: a reply already in hand would be the write's own error.
		err := g.refuse
		time.AfterFunc(time.Millisecond, func() { b.reply <- err })
	case g.hold:
		g.sent = append(g.sent, b)
	case g.delay > 0:
		err := g.MemStore.BatchPut(items)
		time.AfterFunc(g.delay*time.Duration(1+g.n%3), func() { b.reply <- err })
	default:
		b.reply <- g.MemStore.BatchPut(items)
	}
	return b.reply
}

func (g *gatedStore) setRefuse(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refuse = err
}

func (g *gatedStore) setHold(hold bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hold = hold
}

// held returns how many batches have been sent while holding.
func (g *gatedStore) held() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sent)
}

// answer answers held batch i, applying it first unless err is set.
func (g *gatedStore) answer(t *testing.T, i int, err error) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if i >= len(g.sent) || g.sent[i].answered {
		t.Fatalf("batch %d not held (%d sent)", i, len(g.sent))
	}
	b := g.sent[i]
	if err == nil {
		if perr := g.MemStore.BatchPut(b.items); perr != nil {
			t.Fatal(perr)
		}
	}
	b.answered = true
	b.reply <- err
}

// release applies held batch i and answers it.
func (g *gatedStore) release(t *testing.T, i int) { t.Helper(); g.answer(t, i, nil) }

// fail answers held batch i with err and applies nothing.
func (g *gatedStore) fail(t *testing.T, i int, err error) { t.Helper(); g.answer(t, i, err) }

// abandon answers every held batch still unanswered with an error, so
// that a test that stops early does not leave its sessions waiting.
func (g *gatedStore) abandon() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, b := range g.sent {
		if !b.answered {
			b.answered = true
			b.reply <- errors.New("abandoned")
		}
	}
}

// gatedWorld bootstraps a filesystem on a gatedStore under Scheme-2 and
// returns it with alice's session, whose cache is cacheBytes.
func gatedWorld(t *testing.T, cacheBytes int64) (*world, *gatedStore, *Session) {
	t.Helper()
	fixture(t)
	g := &gatedStore{MemStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), g)
	t.Cleanup(g.abandon) // runs before the world's cleanup closes the sessions
	alice := w.mountFresh("alice", cacheBytes)
	w.sess["alice"] = alice
	return w, g, alice
}

// must fails the test on err.
func must(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// async runs op on its own goroutine and returns its result channel.
func async(op func() error) chan error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	return done
}

// blocked checks that op has not returned after a short wait.
func blocked(t *testing.T, done chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) before the batch it waits for landed", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

// returned waits for op's result.
func returned(t *testing.T, done chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// sameAsFresh checks that the session reads what a fresh mount of alice
// reads on every observed path.
func sameAsFresh(t *testing.T, w *world, s *Session, what string) {
	t.Helper()
	fresh := w.mountFresh("alice", -1)
	defer fresh.Close()
	sameLines(t, what, observe(s), observe(fresh))
}

// TestPipelinedRepliesInReverseOrder: three writes to unrelated files are
// all in flight at once, each returning before its reply, and replies
// that arrive last-sent first leave the writer reading what the store
// holds.
func TestPipelinedRepliesInReverseOrder(t *testing.T) {
	w, g, alice := gatedWorld(t, -1)
	must(t, alice.Mkdir("/d", 0o755), alice.Mkdir("/e", 0o755),
		alice.WriteFile("/d/old", []byte("old"), 0o644), alice.WriteFile("/e/moved", []byte("e"), 0o644),
		alice.WriteFile("/d/new", []byte("n"), 0o644))

	g.setHold(true)
	must(t, alice.WriteFile("/d/old", []byte("OLD v2"), 0),
		alice.WriteFile("/e/moved", []byte("E v2"), 0),
		alice.Append("/d/new", []byte("+more")))
	if n := g.held(); n != 3 {
		t.Fatalf("%d batches in flight, want 3", n)
	}
	// An append re-seals no metadata: the file is served from what the
	// append staged, with no read to wait.
	if got, err := alice.ReadFile("/d/new"); err != nil || string(got) != "n+more" {
		t.Fatalf("writer reads %q, %v before the reply; want its own append", got, err)
	}
	for i := 2; i >= 0; i-- {
		g.release(t, i)
	}
	must(t, alice.Sync())
	g.setHold(false)
	sameAsFresh(t, w, alice, "writer after reverse-order replies")
}

// TestConflictingBatchWaitsForItsPredecessor: a write that names a key of
// a batch in flight is not sent until that batch lands.
func TestConflictingBatchWaitsForItsPredecessor(t *testing.T) {
	w, g, alice := gatedWorld(t, -1)
	must(t, alice.Mkdir("/d", 0o755))

	g.setHold(true)
	must(t, alice.Create("/d/old", 0o644)) // rewrites /d's tables
	second := async(func() error { return alice.Create("/d/new", 0o644) })
	blocked(t, second, "a create naming /d's tables")
	if n := g.held(); n != 1 {
		t.Fatalf("%d batches sent while the first is in flight, want 1", n)
	}
	g.release(t, 0)
	must(t, returned(t, second, "the second create"))
	g.release(t, 1)
	must(t, alice.Sync())
	g.setHold(false)
	sameAsFresh(t, w, alice, "writer after two creates in one directory")
}

// TestFetchWaitsOnlyForNamedKeys: with nothing cached, a read of a file
// whose write is in flight waits for that write to land, and a read of
// any other file goes out at once.
func TestFetchWaitsOnlyForNamedKeys(t *testing.T) {
	w, g, alice := gatedWorld(t, 0)
	must(t, alice.Mkdir("/d", 0o755), alice.Mkdir("/e", 0o755),
		alice.WriteFile("/d/old", []byte("old"), 0o644), alice.WriteFile("/e/moved", []byte("e"), 0o644))

	g.setHold(true)
	must(t, alice.WriteFile("/d/old", []byte("OLD v2"), 0))
	other := async(func() error {
		got, err := alice.ReadFile("/e/moved")
		if err == nil && string(got) != "e" {
			err = errors.New("read " + string(got))
		}
		return err
	})
	must(t, returned(t, other, "a read naming no key in flight"))
	same := async(func() error {
		got, err := alice.ReadFile("/d/old")
		if err == nil && string(got) != "OLD v2" {
			err = errors.New("read " + string(got))
		}
		return err
	})
	blocked(t, same, "a read of the file in flight")
	g.release(t, 0)
	must(t, returned(t, same, "the read of the file in flight"))
	g.setHold(false)
	sameAsFresh(t, w, alice, "writer after the read")
}

// TestChmodWaitsForItsReply: a chmod sends nothing until every earlier
// batch has landed, and returns only once its own reply has arrived.
func TestChmodWaitsForItsReply(t *testing.T) {
	w, g, alice := gatedWorld(t, -1)
	must(t, alice.Mkdir("/d", 0o755), alice.WriteFile("/d/old", []byte("old"), 0o644),
		alice.Mkdir("/e", 0o755))

	g.setHold(true)
	must(t, alice.Create("/e/moved", 0o644)) // in flight, unrelated to /d/old
	chmod := async(func() error { return alice.Chmod("/d/old", 0o600) })
	blocked(t, chmod, "chmod with an earlier batch in flight")
	if n := g.held(); n != 1 {
		t.Fatalf("%d batches sent, want only the earlier one", n)
	}
	g.release(t, 0)
	for deadline := time.Now().Add(10 * time.Second); g.held() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("chmod never sent its batch")
		}
	}
	blocked(t, chmod, "chmod before its own reply")
	g.release(t, 1)
	must(t, returned(t, chmod, "chmod"))
	g.setHold(false)
	sameAsFresh(t, w, alice, "writer after chmod")
}

// errBoom is what a gated batch fails with.
var errBoom = errors.New("batch failed after it was sent")

// TestFailedBatchReportedOnce: a batch that fails after its write
// returned makes the session's next operation return that error, once;
// the cache forgets that batch's keys and those of the batch sent after
// it, so the writer then reads what a fresh mount reads.
func TestFailedBatchReportedOnce(t *testing.T) {
	w, g, alice := gatedWorld(t, -1)
	must(t, alice.Mkdir("/d", 0o755), alice.Mkdir("/e", 0o755),
		alice.WriteFile("/d/old", []byte("old"), 0o644), alice.WriteFile("/e/moved", []byte("e"), 0o644))

	g.setHold(true)
	must(t, alice.WriteFile("/d/old", []byte("lost"), 0),
		alice.WriteFile("/e/moved", []byte("kept, but forgotten"), 0))
	g.fail(t, 0, errBoom)
	// The second batch lands; its keys are forgotten all the same, as
	// those of a batch sent after a failed one.
	g.release(t, 1)
	g.setHold(false)
	if _, err := alice.Stat("/"); !errors.Is(err, errBoom) {
		t.Fatalf("next operation after the failure: %v, want %v", err, errBoom)
	}
	if _, err := alice.Stat("/"); err != nil {
		t.Fatalf("the failure surfaced twice: %v", err)
	}
	must(t, alice.Sync())
	sameAsFresh(t, w, alice, "writer after the failed batch")
	fresh := w.mountFresh("alice", -1)
	defer fresh.Close()
	got, err := fresh.ReadFile("/d/old")
	if err != nil || string(got) != "old" {
		t.Fatalf("store holds %q, %v; want the write before the failed one", got, err)
	}
}

// TestWriteOnAFailedBatchIsNotSent: a write waiting for a batch it
// conflicts with is not sent when that batch fails — it was built on what
// the failed batch staged — and returns the failure, which is then not
// reported again.
func TestWriteOnAFailedBatchIsNotSent(t *testing.T) {
	w, g, alice := gatedWorld(t, -1)
	must(t, alice.Mkdir("/d", 0o755))

	g.setHold(true)
	must(t, alice.Create("/d/old", 0o644))
	second := async(func() error { return alice.Create("/d/new", 0o644) })
	blocked(t, second, "a create naming /d's tables")
	g.fail(t, 0, errBoom)
	if err := returned(t, second, "the second create"); !errors.Is(err, errBoom) {
		t.Fatalf("create behind a failed batch: %v, want %v", err, errBoom)
	}
	if n := g.held(); n != 1 {
		t.Fatalf("%d batches sent, want only the failed one", n)
	}
	g.setHold(false)
	must(t, alice.Sync())
	sameAsFresh(t, w, alice, "writer after the failed batch and the unsent one")
	names, err := alice.ReadDir("/d")
	if err != nil || len(names) != 0 {
		t.Fatalf("/d lists %v, %v; want it empty", names, err)
	}
}

// TestSessionCloseLeavesNoGoroutine: a session over a real pipelined SSP
// connection, closed with writes in flight, waits for them and leaves
// the goroutine count where it was before it dialed.
func TestSessionCloseLeavesNoGoroutine(t *testing.T) {
	fixture(t)
	backing := ssp.NewMemStore()
	lis := netsim.Listen(netsim.Unlimited)
	srv := ssp.NewServer(backing, nil)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-served
	}()
	w := newWorld(t, layout.NewScheme2(fixReg), backing)
	base := runtime.NumGoroutine()

	conn, err := ssp.Dial(lis.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Mount(Config{Store: conn, User: fixUser["alice"], Registry: fixReg,
		Layout: w.eng, FSID: "testfs", CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.Mkdir("/d", 0o755))
	for _, name := range []string{"/d/a", "/d/b", "/d/c"} {
		must(t, s.WriteFile(name, []byte(name), 0o644))
	}
	must(t, s.Close())
	fresh := w.mountFresh("alice", -1)
	defer fresh.Close()
	got, err := fresh.ReadFile("/d/c")
	if err != nil || string(got) != "/d/c" {
		t.Fatalf("after Close the store holds %q, %v", got, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Dial", runtime.NumGoroutine(), base)
		}
	}
}
