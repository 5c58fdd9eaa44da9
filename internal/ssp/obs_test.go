package ssp

import (
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestServerMetricsAndJoinedSpans checks the Observe plumbing end to end:
// per-op counters and latency histograms fill in, the connection gauge
// returns to zero, and SSP-side spans join the client's trace through the
// wire extension.
func TestServerMetricsAndJoinedSpans(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	reg := obs.NewRegistry()
	l.Observe(reg)
	serverTracer := obs.NewTracer("ssp")
	srv := NewServer(NewMemStore(), nil)
	srv.Observe(reg, serverTracer)
	go srv.Serve(l)
	defer srv.Close()

	clientTracer := obs.NewTracer("client")
	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observe(clientTracer)

	root := clientTracer.Start("client.op", obs.ClassNone)
	if err := c.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(wire.NSData, "k"); err != nil {
		t.Fatal(err)
	}
	root.End()

	if got := reg.Counter("ssp.op.put").Value(); got != 1 {
		t.Errorf("ssp.op.put = %d, want 1", got)
	}
	if got := reg.Counter("ssp.op.get").Value(); got != 1 {
		t.Errorf("ssp.op.get = %d, want 1", got)
	}
	if hs := reg.Histogram("ssp.op.get.ns").Snapshot(); hs.Count != 1 || hs.SumNanos <= 0 {
		t.Errorf("ssp.op.get.ns snapshot = %+v", hs)
	}
	if got := reg.Counter("netsim.dials").Value(); got != 1 {
		t.Errorf("netsim.dials = %d, want 1", got)
	}
	if got := reg.Counter("netsim.bytes_up").Value(); got <= 0 {
		t.Error("netsim.bytes_up not counted")
	}
	if got := reg.Counter("netsim.transmits").Value(); got <= 0 {
		t.Error("netsim.transmits not counted")
	}

	// Client trace: root + two rpc spans, all one trace.
	cs := clientTracer.Spans()
	if len(cs) != 3 {
		t.Fatalf("client spans = %d, want 3", len(cs))
	}
	// Server trace: two handler spans joined to the client's trace, each
	// parented to the rpc span that carried it.
	ss := serverTracer.Spans()
	if len(ss) != 2 {
		t.Fatalf("server spans = %d, want 2", len(ss))
	}
	rpcIDs := map[obs.SpanID]bool{cs[0].ID: true, cs[1].ID: true}
	for _, sp := range ss {
		if sp.Trace != root.Trace {
			t.Errorf("server span %s trace %d, want %d", sp.Name, sp.Trace, root.Trace)
		}
		if !rpcIDs[sp.Parent] {
			t.Errorf("server span %s parent %d is not an rpc span", sp.Name, sp.Parent)
		}
	}

	// The handler drops the gauge first and flushes its byte counters
	// right after, so wait for both.
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge("ssp.conns").Value() != 0 ||
		reg.Counter("ssp.bytes_in").Value() <= 0 || reg.Counter("ssp.bytes_out").Value() <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect: ssp.conns = %d, ssp.bytes_in = %d, ssp.bytes_out = %d; want 0 and both flushed",
				reg.Gauge("ssp.conns").Value(), reg.Counter("ssp.bytes_in").Value(), reg.Counter("ssp.bytes_out").Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrains checks graceful drain: an idle connection is closed
// promptly, the listener stops accepting, and Shutdown returns without
// waiting for the full grace period.
func TestShutdownDrains(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := srv.Shutdown(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown of idle server took %v", d)
	}
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after drain")
	}
	if _, err := l.Dial(); err == nil {
		t.Error("dial succeeded after drain")
	}
	srv.Shutdown(time.Second) // idempotent
}

// TestShutdownFinishesInFlight: a request already being processed when
// Shutdown starts must complete and get its response.
func TestShutdownFinishesInFlight(t *testing.T) {
	slow := &slowStore{BlobStore: NewMemStore(), delay: 100 * time.Millisecond}
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(slow, nil)
	go srv.Serve(l)

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil { // ensure the handler is up
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() { errc <- c.Put(wire.NSData, "k", []byte("v")) }()
	time.Sleep(20 * time.Millisecond) // let the put reach the slow store
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-flight put failed during drain: %v", err)
	}
}

// slowStore delays writes to keep a request in flight during drain.
type slowStore struct {
	BlobStore
	delay time.Duration
}

func (s *slowStore) Put(ns wire.NS, key string, val []byte) error {
	time.Sleep(s.delay)
	return s.BlobStore.Put(ns, key, val)
}

// TestShutdownBoundedByGrace: a request stuck inside the store does not
// hold Shutdown past its grace. Shutdown force-closes the connections,
// returns an error that counts the one still in the store, and the stuck
// handler finishes on its own once the store lets go.
func TestShutdownBoundedByGrace(t *testing.T) {
	stuck := &gatedStore{BlobStore: NewMemStore(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(stuck, nil)
	go srv.Serve(l)

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := c.Go(&wire.Request{Op: wire.OpBatchGet, Items: []wire.KV{{NS: wire.NSData, Key: "k"}}}, nil)
	select {
	case <-stuck.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("BatchGet never reached the store")
	}

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(50 * time.Millisecond) }()
	select {
	case err = <-shut:
	case <-time.After(5 * time.Second):
		close(stuck.release)
		t.Fatal("Shutdown(50ms) with a stuck store still waiting after 5s")
	}
	if err == nil || !strings.Contains(err.Error(), "1 connection(s)") {
		t.Fatalf("Shutdown(50ms) = %v, want an error counting 1 stuck connection", err)
	}
	close(stuck.release)
	select {
	case <-call.Done:
	case <-time.After(10 * time.Second):
		t.Fatal("the stuck call never completed")
	}
	if err := srv.Close(); err != nil { // the released handler drains
		t.Fatal(err)
	}
}

// gatedStore blocks every BatchGet until release is closed, announcing
// each on entered. It embeds the BlobStore interface only, so the server
// sees no ViewStore and reads through BatchGet.
type gatedStore struct {
	BlobStore
	entered chan struct{}
	release chan struct{}
}

func (s *gatedStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return s.BlobStore.BatchGet(items)
}
