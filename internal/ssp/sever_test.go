package ssp

import (
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestSeverConns cuts every live connection at once over netsim: calls on
// the cut links fail, the listener still accepts a redial, a second sever
// while the first's handlers are still tearing down cuts nothing, and
// ssp.severs counts each cut once.
func TestSeverConns(t *testing.T) {
	stuck := &gatedStore{BlobStore: NewMemStore(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	reg := obs.NewRegistry()
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(stuck, nil)
	srv.Observe(reg, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { close(stuck.release) }) // runs first: Close waits for the stuck handler

	if n := srv.SeverConns(); n != 0 {
		t.Fatalf("SeverConns with nothing connected = %d, want 0", n)
	}

	dial := func() *Client {
		c, err := Dial(l.Dial, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Ping(); err != nil { // the server has accepted it
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := dial(), dial()
	// c1's handler cannot finish tearing down while this call is in the
	// store.
	call := c1.Go(&wire.Request{Op: wire.OpBatchGet, Items: []wire.KV{{NS: wire.NSData, Key: "k"}}}, nil)
	select {
	case <-stuck.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("BatchGet never reached the store")
	}

	if n := srv.SeverConns(); n != 2 {
		t.Fatalf("SeverConns = %d, want 2", n)
	}
	if n := srv.SeverConns(); n != 0 {
		t.Fatalf("second SeverConns = %d, want 0: both connections were already cut", n)
	}
	if n := reg.Gauge("ssp.conns").Value(); n < 1 {
		t.Fatalf("ssp.conns = %d, want the stuck handler still tearing down", n)
	}
	select {
	case <-call.Done:
		if call.Err == nil {
			t.Error("call on a cut link succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call on a cut link never failed")
	}
	if err := c2.Ping(); err == nil {
		t.Error("ping on a cut link succeeded")
	}

	c3 := dial()
	if err := c3.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatalf("put on a redialed link: %v", err)
	}
	if n := srv.SeverConns(); n != 1 {
		t.Fatalf("SeverConns after redial = %d, want 1", n)
	}
	if n := reg.Counter("ssp.severs").Value(); n != 3 {
		t.Fatalf("ssp.severs = %d, want 3 (one per cut)", n)
	}
}
