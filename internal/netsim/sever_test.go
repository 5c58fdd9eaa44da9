package netsim

import (
	"errors"
	"io"
	"net"
	"testing"

	"github.com/sharoes/sharoes/internal/obs"
)

// TestSeverConns cuts every live conn of a listener at once, the way a
// server severs its links (ssp.Server.SeverConns closes the ends it
// accepted): every dialed end reads EOF and refuses writes, cutting a cut
// conn again is a no-op, and the listener survives the partition: a
// redial is accepted and carries data both ways.
func TestSeverConns(t *testing.T) {
	reg := obs.NewRegistry()
	l := Listen(Unlimited)
	l.Observe(reg)
	t.Cleanup(func() { l.Close() })

	var clients, servers []net.Conn
	for i := 0; i < 2; i++ {
		c, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		clients, servers = append(clients, c), append(servers, s)
	}

	for _, s := range servers {
		if err := s.Close(); err != nil {
			t.Fatalf("cut: %v", err)
		}
	}
	for i, c := range clients {
		if _, err := c.Read(make([]byte, 8)); err != io.EOF {
			t.Errorf("read on cut conn %d = %v, want io.EOF", i, err)
		}
		if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
			t.Errorf("write on cut conn %d = %v, want net.ErrClosed", i, err)
		}
	}
	for i, s := range servers {
		if err := s.Close(); err != nil {
			t.Errorf("second cut of conn %d = %v, want nil", i, err)
		}
	}

	c3, err := l.Dial()
	if err != nil {
		t.Fatalf("redial after sever: %v", err)
	}
	t.Cleanup(func() { c3.Close() })
	s3, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s3.Close() })
	if _, err := c3.Write([]byte("hello")); err != nil {
		t.Fatalf("write on redialed conn: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(s3, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("server read on redialed conn = %q, %v", buf, err)
	}
	if _, err := s3.Write([]byte("world")); err != nil {
		t.Fatalf("reply on redialed conn: %v", err)
	}
	if _, err := io.ReadFull(c3, buf); err != nil || string(buf) != "world" {
		t.Fatalf("client read on redialed conn = %q, %v", buf, err)
	}
	if n := reg.Counter("netsim.dials").Value(); n != 3 {
		t.Errorf("netsim.dials = %d, want 3", n)
	}
}

// TestSeverConnsEmpty: cutting a link whose dialer already closed it (a
// sever racing the client's own close) is a no-op: it returns nil, sends
// nothing, and leaves the listener accepting.
func TestSeverConnsEmpty(t *testing.T) {
	reg := obs.NewRegistry()
	l := Listen(Unlimited)
	l.Observe(reg)
	t.Cleanup(func() { l.Close() })

	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("cut of a link its dialer closed = %v, want nil", err)
	}
	for _, name := range []string{"netsim.bytes_up", "netsim.bytes_down", "netsim.transmits"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d, want 0: a cut sends nothing", name, n)
		}
	}

	c2, err := l.Dial()
	if err != nil {
		t.Fatalf("dial after the cut: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	s2, err := l.Accept()
	if err != nil {
		t.Fatalf("accept after the cut: %v", err)
	}
	s2.Close()
}
