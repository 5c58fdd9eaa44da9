package ssp

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// noSleep removes backoff waits from reconnect tests.
func noSleep(time.Duration) {}

// TestReconnectHealsAfterSever: severing the link fails the in-flight
// call fast with a connection-class error, and the next call redials and
// succeeds against the still-running server.
func TestReconnectHealsAfterSever(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })

	if err := rc.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n := srv.SeverConns(); n != 1 {
		t.Fatalf("severed %d conns, want 1", n)
	}

	// The first call(s) after the cut may fail — with an error the
	// wrapper classifies as connection-class, so retry policy one layer
	// up can recognize it — but a redial must heal within a few calls.
	healed := false
	for i := 0; i < 10; i++ {
		v, err := rc.Get(wire.NSData, "k")
		if err == nil {
			if string(v) != "v" {
				t.Fatalf("healed Get = %q, want v", v)
			}
			healed = true
			break
		}
		if !connErr(err) {
			t.Fatalf("post-sever Get error %v is not connection-class", err)
		}
	}
	if !healed {
		t.Fatal("client never healed after sever")
	}
	if n := reg.Counter("ssp.reconnect.drops").Value(); n < 1 {
		t.Errorf("reconnect.drops = %d, want >= 1", n)
	}
	if n := reg.Counter("ssp.reconnect.success").Value(); n < 1 {
		t.Errorf("reconnect.success = %d, want >= 1", n)
	}
}

// TestReconnectStickyGiveup: once MaxRedials consecutive dials fail, the
// client goes sticky — every later call fails fast with
// ErrReconnectFailed and no further dials are attempted.
func TestReconnectStickyGiveup(t *testing.T) {
	dials := 0
	refuse := func() (net.Conn, error) {
		dials++
		return nil, fmt.Errorf("connection refused")
	}
	reg := obs.NewRegistry()
	rc := NewReconnectClient(refuse, ReconnectOptions{MaxRedials: 3, Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })

	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, ErrReconnectFailed) {
		t.Fatalf("Get = %v, want ErrReconnectFailed", err)
	}
	if dials != 3 {
		t.Fatalf("dialed %d times, want exactly MaxRedials=3", dials)
	}
	// Sticky: fails fast, without dialing again.
	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, ErrReconnectFailed) {
		t.Fatalf("second Get = %v, want sticky ErrReconnectFailed", err)
	}
	if dials != 3 {
		t.Fatalf("sticky client dialed again (%d dials)", dials)
	}
	if n := reg.Counter("ssp.reconnect.giveup").Value(); n != 1 {
		t.Errorf("reconnect.giveup = %d, want 1", n)
	}
	if n := reg.Counter("ssp.reconnect.dial_fail").Value(); n != 3 {
		t.Errorf("reconnect.dial_fail = %d, want 3", n)
	}
}

// TestReconnectNeverGivesUp: MaxRedials < 0 keeps dialing until the
// backend returns.
func TestReconnectNeverGivesUp(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	fails := 0
	dial := func() (net.Conn, error) {
		if fails < 20 {
			fails++
			return nil, fmt.Errorf("not yet")
		}
		return l.Dial()
	}
	rc := NewReconnectClient(dial, ReconnectOptions{MaxRedials: -1, Sleep: noSleep})
	t.Cleanup(func() { rc.Close() })
	if err := rc.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatalf("Put through 20 dial failures: %v", err)
	}
}

// TestReconnectClose: calls after Close fail with ErrShutdown.
func TestReconnectClose(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep})
	if err := rc.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Get after Close = %v, want ErrShutdown", err)
	}
}

// TestReconnectNotFoundDoesNotDrop: a per-key remote status must not
// condemn the connection.
func TestReconnectNotFoundDoesNotDrop(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })
	if _, err := rc.Get(wire.NSData, "missing"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want wire.ErrNotFound", err)
	}
	if n := reg.Counter("ssp.reconnect.drops").Value(); n != 0 {
		t.Errorf("NotFound dropped the connection (drops=%d)", n)
	}
}
