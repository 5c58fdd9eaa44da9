package resilience

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// timeoutErr is a minimal net.Error with Timeout() == true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

var _ net.Error = timeoutErr{}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"not-found", wire.ErrNotFound, false},
		{"reconnect-giveup", ssp.ErrReconnectFailed, false},
		{"wrapped-giveup", fmt.Errorf("call: %w", ssp.ErrReconnectFailed), false},
		{"random", errors.New("disk full"), false},
		{"deadline", ssp.ErrDeadline, true},
		{"wrapped-deadline", fmt.Errorf("get k: %w", ssp.ErrDeadline), true},
		{"shutdown", ssp.ErrShutdown, true},
		{"injected-write", ssp.ErrInjectedWrite, true},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"net-closed", net.ErrClosed, true},
		{"net-timeout", timeoutErr{}, true},
		{"wrapped-timeout", fmt.Errorf("dial: %w", timeoutErr{}), true},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// countStore wraps a MemStore and fails the first failN calls of each
// overridden op with err, counting invocations.
type countStore struct {
	*ssp.MemStore
	mu       sync.Mutex
	err      error
	failGets int
	failPuts int
	gets     int
	puts     int
}

func (c *countStore) Get(ns wire.NS, key string) ([]byte, error) {
	c.mu.Lock()
	c.gets++
	fail := c.failGets > 0
	if fail {
		c.failGets--
	}
	c.mu.Unlock()
	if fail {
		return nil, c.err
	}
	return c.MemStore.Get(ns, key)
}

func (c *countStore) Put(ns wire.NS, key string, val []byte) error {
	c.mu.Lock()
	c.puts++
	fail := c.failPuts > 0
	if fail {
		c.failPuts--
	}
	c.mu.Unlock()
	if fail {
		return c.err
	}
	return c.MemStore.Put(ns, key, val)
}

func (c *countStore) BatchPut(items []wire.KV) error {
	c.mu.Lock()
	c.puts++
	fail := c.failPuts > 0
	if fail {
		c.failPuts--
	}
	c.mu.Unlock()
	if fail {
		return c.err
	}
	return c.MemStore.BatchPut(items)
}

func (c *countStore) counts() (gets, puts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets, c.puts
}

// fastPolicy removes real sleeps and attaches a registry.
func fastPolicy(reg *obs.Registry) Policy {
	return Policy{Sleep: func(time.Duration) {}, Registry: reg}
}

func TestGetRetriedToSuccess(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: ssp.ErrDeadline, failGets: 2}
	inner.MemStore.Put(wire.NSData, "k", []byte("v"))
	reg := obs.NewRegistry()
	s := NewStore(inner, fastPolicy(reg), nil)

	v, err := s.Get(wire.NSData, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v, want rescue on attempt 3", v, err)
	}
	gets, _ := inner.counts()
	if gets != 3 {
		t.Fatalf("inner gets = %d, want 3", gets)
	}
	if n := reg.Counter("resilience.retry.attempts").Value(); n != 2 {
		t.Errorf("retry.attempts = %d, want 2", n)
	}
	if n := reg.Counter("resilience.retry.success").Value(); n != 1 {
		t.Errorf("retry.success = %d, want 1", n)
	}
}

func TestGetExhaustsAttempts(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: ssp.ErrDeadline, failGets: 10}
	reg := obs.NewRegistry()
	s := NewStore(inner, fastPolicy(reg), nil)

	if _, err := s.Get(wire.NSData, "k"); !errors.Is(err, ssp.ErrDeadline) {
		t.Fatalf("Get = %v, want the classified transient error surfaced", err)
	}
	gets, _ := inner.counts()
	if gets != 3 {
		t.Fatalf("inner gets = %d, want maxAttempts=3", gets)
	}
	if n := reg.Counter("resilience.retry.exhausted").Value(); n != 1 {
		t.Errorf("retry.exhausted = %d, want 1", n)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: errors.New("checksum mismatch"), failGets: 1}
	s := NewStore(inner, fastPolicy(nil), nil)
	if _, err := s.Get(wire.NSData, "k"); err == nil {
		t.Fatal("Get = nil, want the permanent error")
	}
	if gets, _ := inner.counts(); gets != 1 {
		t.Fatalf("inner gets = %d; permanent errors must not retry", gets)
	}
}

func TestNotFoundNotRetried(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore()}
	s := NewStore(inner, fastPolicy(nil), nil)
	if _, err := s.Get(wire.NSData, "missing"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("Get(missing) = %v", err)
	}
	if gets, _ := inner.counts(); gets != 1 {
		t.Fatalf("inner gets = %d; NotFound must not retry", gets)
	}
}

func TestPutNotRetriedWithoutContentKey(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: ssp.ErrInjectedWrite, failPuts: 1}
	s := NewStore(inner, fastPolicy(nil), nil)
	if err := s.Put(wire.NSData, "k", []byte("v")); !errors.Is(err, ssp.ErrInjectedWrite) {
		t.Fatalf("Put = %v, want first transient error surfaced unretried", err)
	}
	if _, puts := inner.counts(); puts != 1 {
		t.Fatalf("inner puts = %d; non-idempotent Put must not retry", puts)
	}
}

func TestPutRetriedForContentKeys(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: ssp.ErrInjectedWrite, failPuts: 1}
	all := func(wire.NS, string) bool { return true }
	s := NewStore(inner, fastPolicy(nil), all)
	if err := s.Put(wire.NSData, "cas/abc", []byte("v")); err != nil {
		t.Fatalf("content-addressed Put = %v, want rescue", err)
	}
	if _, puts := inner.counts(); puts != 2 {
		t.Fatalf("inner puts = %d, want 2", puts)
	}
}

func TestBatchPutMixedBatchNotRetried(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: ssp.ErrInjectedWrite, failPuts: 2}
	cas := func(_ wire.NS, key string) bool { return len(key) > 4 && key[:4] == "cas/" }
	s := NewStore(inner, fastPolicy(nil), cas)

	// One non-content-addressed item poisons the whole batch.
	mixed := []wire.KV{
		{NS: wire.NSData, Key: "cas/a", Val: []byte("x")},
		{NS: wire.NSData, Key: "mutable/b", Val: []byte("y")},
	}
	if err := s.BatchPut(mixed); !errors.Is(err, ssp.ErrInjectedWrite) {
		t.Fatalf("mixed BatchPut = %v, want unretried error", err)
	}
	if _, puts := inner.counts(); puts != 1 {
		t.Fatalf("inner puts = %d; mixed batch must not retry", puts)
	}

	// All content-addressed (deletes count as idempotent) retries.
	pure := []wire.KV{
		{NS: wire.NSData, Key: "cas/a", Val: []byte("x")},
		{NS: wire.NSData, Key: "anything", Delete: true},
	}
	if err := s.BatchPut(pure); err != nil {
		t.Fatalf("content-addressed BatchPut = %v, want rescue", err)
	}
}

// TestRetryBudgetDenies drains the retry budget's bucket with Gets that
// always fail. Each Get deposits 0.2 tokens and asks for 2 retries: the
// full bucket of 10 pays both for Gets 1-5 (0.8 tokens left), Get 6 gets
// one retry and Get 7 none. From then on the bucket refills at 0.2 per
// op, so 50 more Gets get 10 retries between them: a fifth of the load.
func TestRetryBudgetDenies(t *testing.T) {
	inner := &countStore{MemStore: ssp.NewMemStore(), err: ssp.ErrDeadline, failGets: 1 << 20}
	reg := obs.NewRegistry()
	s := NewStore(inner, fastPolicy(reg), nil)
	getN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Get(wire.NSData, "k"); !errors.Is(err, ssp.ErrDeadline) {
				t.Fatalf("Get = %v", err)
			}
		}
	}
	check := func(wantGets, wantRetries, wantDenied int64) {
		t.Helper()
		gets, _ := inner.counts()
		retries := reg.Counter("resilience.retry.attempts").Value()
		denied := reg.Counter("resilience.retry.budget_denied").Value()
		if int64(gets) != wantGets || retries != wantRetries || denied != wantDenied {
			t.Fatalf("inner gets, retries, budget_denied = %d, %d, %d; want %d, %d, %d",
				gets, retries, denied, wantGets, wantRetries, wantDenied)
		}
	}

	getN(5)
	check(15, 10, 0) // the full bucket pays every retry
	getN(2)
	check(18, 11, 2) // 6: one retry, then denied; 7: denied at once
	getN(50)
	check(78, 21, 52) // 10 retries for 50 ops, every op denied once
}

// stallFirstGet holds the first Get of each key until gate closes, and
// serves every later Get at once: a server hung on one request. It
// embeds the interface, so the server cannot bypass Get through a
// borrowed-read ViewStore.
type stallFirstGet struct {
	ssp.BlobStore
	gate chan struct{}
	mu   sync.Mutex
	seen map[string]bool
}

func (s *stallFirstGet) Get(ns wire.NS, key string) ([]byte, error) {
	s.mu.Lock()
	first := !s.seen[key]
	s.seen[key] = true
	s.mu.Unlock()
	if first {
		<-s.gate
	}
	return s.BlobStore.Get(ns, key)
}

// TestDeadlineRetriedOnFreshConnection: the full self-healing path for a
// hung call. The reconnect layer's deadline fails the stuck Get and drops
// its connection, the error classifies transient, and the retry redials
// and reads the value on a fresh connection.
func TestDeadlineRetriedOnFreshConnection(t *testing.T) {
	store := &stallFirstGet{BlobStore: ssp.NewMemStore(), gate: make(chan struct{}), seen: map[string]bool{}}
	defer close(store.gate)
	if err := store.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	l := netsim.Listen(netsim.Unlimited)
	srv := ssp.NewServer(store, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() }) // after the deferred gate opening

	reg := obs.NewRegistry()
	rc := ssp.NewReconnectClient(l.Dial, ssp.ReconnectOptions{
		CallTimeout: 30 * time.Millisecond, Sleep: func(time.Duration) {}, Registry: reg})
	t.Cleanup(func() { rc.Close() })
	s := NewStore(rc, fastPolicy(reg), nil)

	v, err := s.Get(wire.NSData, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v, want the value from the retry", v, err)
	}
	for _, name := range []string{"ssp.reconnect.deadline_expired", "ssp.reconnect.success", "resilience.retry.success"} {
		if n := reg.Counter(name).Value(); n != 1 {
			t.Errorf("%s = %d, want 1", name, n)
		}
	}
}
