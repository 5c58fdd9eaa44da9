package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	c, s := Pipe(Unlimited)
	defer c.Close()
	defer s.Close()

	go func() {
		if _, err := c.Write([]byte("hello ssp")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 64)
	n, err := s.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello ssp" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestPipeBidirectional(t *testing.T) {
	c, s := Pipe(Unlimited)
	defer c.Close()
	defer s.Close()

	go func() {
		buf := make([]byte, 16)
		n, _ := s.Read(buf)
		s.Write(append([]byte("echo:"), buf[:n]...))
	}()
	c.Write([]byte("ping"))
	buf := make([]byte, 32)
	n, err := io.ReadAtLeast(c, buf, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo:ping" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestPipeLargeTransferOrdered(t *testing.T) {
	c, s := Pipe(Unlimited)
	defer c.Close()

	msg := make([]byte, 256*1024)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	go func() {
		c.Write(msg)
		c.Close()
	}()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("large transfer corrupted")
	}
}

func TestPipeEOFAfterClose(t *testing.T) {
	c, s := Pipe(Unlimited)
	c.Write([]byte("last words"))
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "last words" {
		t.Errorf("got %q", got)
	}
	// A second read keeps returning EOF.
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	c, s := Pipe(Unlimited)
	s.Close()
	// Eventually writes fail once the buffer fills; with the direction
	// closed they must fail immediately.
	_, err := c.Write(make([]byte, 1))
	if !errors.Is(err, net.ErrClosed) {
		t.Errorf("err = %v, want net.ErrClosed", err)
	}
}

// TestConnCloseIdempotent: a second Close is a no-op, and closing one
// end is a cut of the whole link, whichever end it is: the peer reads
// EOF and writes fail at both ends. The server cuts a link by closing
// its own end (ssp.Server.SeverConns; see sever_test.go).
func TestConnCloseIdempotent(t *testing.T) {
	c, s := Pipe(Unlimited)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("peer read after close = %v, want io.EOF", err)
	}
	for name, end := range map[string]*Conn{"closed end": s, "peer": c} {
		if _, err := end.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
			t.Errorf("write on the %s = %v, want net.ErrClosed", name, err)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	p := Profile{Name: "test", Latency: 30 * time.Millisecond}
	c, s := Pipe(p)
	defer c.Close()
	defer s.Close()

	start := time.Now()
	go c.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("one-way delivery took %v, want >= ~30ms", el)
	}
}

func TestBandwidthApplied(t *testing.T) {
	// 80_000 bits/s = 10 KB/s: sending 2 KB should take ~200 ms.
	p := Profile{Name: "slow", UpBps: 80_000}
	c, s := Pipe(p)
	defer c.Close()
	defer s.Close()

	done := make(chan struct{})
	go func() {
		io.ReadFull(s, make([]byte, 2048))
		close(done)
	}()
	start := time.Now()
	if _, err := c.Write(make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	<-done
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Errorf("2KB at 10KB/s took %v, want >= ~200ms", el)
	}
}

func TestAsymmetricDirections(t *testing.T) {
	// Down direction is 10x slower than up.
	p := Profile{Name: "asym", UpBps: 8_000_000, DownBps: 800_000}
	c, s := Pipe(p)
	defer c.Close()
	defer s.Close()

	const n = 8 * 1024
	timeDir := func(w, r net.Conn) time.Duration {
		done := make(chan struct{})
		go func() {
			io.ReadFull(r, make([]byte, n))
			close(done)
		}()
		start := time.Now()
		w.Write(make([]byte, n))
		<-done
		return time.Since(start)
	}
	up := timeDir(c, s)
	down := timeDir(s, c)
	if down < 4*up {
		t.Errorf("down=%v not clearly slower than up=%v", down, up)
	}
}

func TestScaled(t *testing.T) {
	s := DSL.Scaled(50)
	if s.Latency != DSL.Latency/50 {
		t.Errorf("latency = %v", s.Latency)
	}
	if s.UpBps != DSL.UpBps*50 || s.DownBps != DSL.DownBps*50 {
		t.Errorf("bw = %d/%d", s.UpBps, s.DownBps)
	}
	if same := DSL.Scaled(0); same != DSL {
		t.Error("Scaled(0) should be identity")
	}
	// Unlimited stays unlimited.
	if u := Unlimited.Scaled(10); u.UpBps != 0 || u.DownBps != 0 {
		t.Error("scaling unlimited set bandwidth")
	}
}

func TestTransferTime(t *testing.T) {
	// 1000 bytes at 80_000 bps = 100 ms, plus 20 ms latency.
	got := TransferTime(1000, 80_000, 20*time.Millisecond)
	if got != 120*time.Millisecond {
		t.Errorf("TransferTime = %v", got)
	}
	if TransferTime(1<<20, 0, time.Millisecond) != time.Millisecond {
		t.Error("unlimited bandwidth should cost only latency")
	}
}

func TestListenerDialAccept(t *testing.T) {
	l := Listen(Unlimited)
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 8)
		n, _ := conn.Read(buf)
		conn.Write(bytes.ToUpper(buf[:n]))
	}()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("abc"))
	buf := make([]byte, 8)
	n, err := io.ReadAtLeast(conn, buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ABC" {
		t.Errorf("got %q", buf[:n])
	}
	wg.Wait()
}

func TestListenerClose(t *testing.T) {
	l := Listen(Unlimited)
	l.Close()
	l.Close() // double close is fine
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after close: %v", err)
	}
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Dial after close: %v", err)
	}
	if l.Addr().Network() != "netsim" {
		t.Error("addr network")
	}
}

func TestConnAddrsAndDeadlines(t *testing.T) {
	c, s := Pipe(Unlimited)
	defer c.Close()
	defer s.Close()
	if c.LocalAddr().String() == "" || c.RemoteAddr().String() == "" {
		t.Error("empty addrs")
	}
	if err := c.SetDeadline(time.Now()); err != nil {
		t.Error(err)
	}
	if err := c.SetReadDeadline(time.Now()); err != nil {
		t.Error(err)
	}
	if err := c.SetWriteDeadline(time.Now()); err != nil {
		t.Error(err)
	}
}

func TestConcurrentConnsIndependent(t *testing.T) {
	l := Listen(Unlimited)
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c) // echo
			}(conn)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			conn, err := l.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			msg := bytes.Repeat([]byte{id}, 100)
			conn.Write(msg)
			got := make([]byte, 100)
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("conn %d cross-talk", id)
			}
		}(byte(i + 1))
	}
	wg.Wait()
}
