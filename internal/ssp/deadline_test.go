package ssp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// gateStore blocks Gets of keys containing "slow" until the gate opens,
// modelling a server stuck on one request.
type gateStore struct {
	BlobStore
	gate chan struct{}
}

func (g *gateStore) Get(ns wire.NS, key string) ([]byte, error) {
	if strings.Contains(key, "slow") {
		<-g.gate
	}
	return g.BlobStore.Get(ns, key)
}

// gatedReconnect serves a gateStore holding "slow/k" = v1 and
// "fast/k" = v2, and returns it with a ReconnectClient over it.
func gatedReconnect(t *testing.T, opt ReconnectOptions) (*gateStore, *ReconnectClient) {
	t.Helper()
	store := &gateStore{BlobStore: NewMemStore(), gate: make(chan struct{})}
	if err := store.BlobStore.Put(wire.NSData, "slow/k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := store.BlobStore.Put(wire.NSData, "fast/k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	opt.Sleep = noSleep
	rc := NewReconnectClient(l.Dial, opt)
	t.Cleanup(func() { rc.Close() })
	return store, rc
}

// TestCallDeadlineExpires: a call stuck behind an unresponsive server
// fails with ErrDeadline once CallTimeout elapses, its connection is
// condemned, and the next call redials and succeeds while the server is
// still stuck on the first.
func TestCallDeadlineExpires(t *testing.T) {
	reg := obs.NewRegistry()
	store, rc := gatedReconnect(t, ReconnectOptions{CallTimeout: 30 * time.Millisecond, Registry: reg})
	defer close(store.gate)

	start := time.Now()
	_, err := rc.Get(wire.NSData, "slow/k")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stuck Get = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if n := reg.Counter("ssp.reconnect.deadline_expired").Value(); n != 1 {
		t.Fatalf("deadline_expired = %d, want 1", n)
	}

	v, err := rc.Get(wire.NSData, "fast/k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get after expiry = %q, %v; want a redialed connection", v, err)
	}
	if n := reg.Counter("ssp.reconnect.success").Value(); n != 1 {
		t.Fatalf("reconnect.success = %d, want 1", n)
	}
	if n := reg.Counter("ssp.reconnect.deadline_expired").Value(); n != 1 {
		t.Fatalf("deadline_expired after the healthy call = %d, want 1", n)
	}
}

// TestCallDeadlineZeroDisables: without a CallTimeout the call waits out
// a slow server rather than expiring, on the connection it started on.
func TestCallDeadlineZeroDisables(t *testing.T) {
	reg := obs.NewRegistry()
	store, rc := gatedReconnect(t, ReconnectOptions{Registry: reg})

	time.AfterFunc(50*time.Millisecond, func() { close(store.gate) })
	v, err := rc.Get(wire.NSData, "slow/k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, want the value once the server unsticks", v, err)
	}
	if n := reg.Counter("ssp.reconnect.deadline_expired").Value(); n != 0 {
		t.Fatalf("deadline_expired = %d, want 0", n)
	}
	if n := reg.Counter("ssp.reconnect.drops").Value(); n != 0 {
		t.Fatalf("reconnect.drops = %d, want 0", n)
	}
}
