package ssp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/wire"
)

// storeContract runs the BlobStore contract against any implementation.
func storeContract(t *testing.T, s BlobStore) {
	t.Helper()

	// Missing key.
	if _, err := s.Get(wire.NSMeta, "nope"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}

	// Put / Get round trip.
	if err := s.Put(wire.NSMeta, "m/1/c/2", []byte("enc-meta")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(wire.NSMeta, "m/1/c/2")
	if err != nil || string(got) != "enc-meta" {
		t.Fatalf("get = %q, %v", got, err)
	}

	// Overwrite.
	if err := s.Put(wire.NSMeta, "m/1/c/2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(wire.NSMeta, "m/1/c/2"); string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}

	// Namespaces are independent.
	if _, err := s.Get(wire.NSData, "m/1/c/2"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("namespace bleed: %v", err)
	}

	// List by prefix, sorted.
	s.Put(wire.NSData, "b/1", []byte("x"))
	s.Put(wire.NSData, "b/2", []byte("y"))
	s.Put(wire.NSData, "c/1", []byte("z"))
	items, err := s.List(wire.NSData, "b/")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Key != "b/1" || items[1].Key != "b/2" {
		t.Fatalf("list = %+v", items)
	}

	// BatchGet skips missing keys.
	res, err := s.BatchGet([]wire.KV{
		{NS: wire.NSData, Key: "b/1"},
		{NS: wire.NSData, Key: "missing"},
		{NS: wire.NSData, Key: "c/1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || string(res[0].Val) != "x" || string(res[1].Val) != "z" {
		t.Fatalf("batchget = %+v", res)
	}

	// BatchPut mixes puts and deletes.
	err = s.BatchPut([]wire.KV{
		{NS: wire.NSData, Key: "b/3", Val: []byte("w")},
		{NS: wire.NSData, Key: "b/1", Delete: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(wire.NSData, "b/1"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatal("batch delete failed")
	}
	if got, _ := s.Get(wire.NSData, "b/3"); string(got) != "w" {
		t.Fatal("batch put failed")
	}

	// Delete is idempotent.
	if err := s.Delete(wire.NSData, "b/3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(wire.NSData, "b/3"); err != nil {
		t.Fatal(err)
	}

	// Stats counts objects and bytes.
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects < 3 {
		t.Fatalf("stats objects = %d", st.Objects)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats bytes = %d", st.Bytes)
	}
	if st.PerNS[wire.NSMeta] != 1 {
		t.Fatalf("per-ns meta = %d", st.PerNS[wire.NSMeta])
	}
}

func TestMemStoreContract(t *testing.T) { storeContract(t, NewMemStore()) }

func TestDiskStoreContract(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(wire.NSMeta, "key with / strange:chars", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(wire.NSMeta, "key with / strange:chars")
	if err != nil || string(got) != "durable" {
		t.Fatalf("reopen get = %q, %v", got, err)
	}
}

func TestMemStoreReturnsCopies(t *testing.T) {
	s := NewMemStore()
	val := []byte("original")
	s.Put(wire.NSData, "k", val)
	val[0] = 'X' // caller mutation must not affect stored value
	got, _ := s.Get(wire.NSData, "k")
	if string(got) != "original" {
		t.Errorf("stored value aliased caller buffer: %q", got)
	}
	got[0] = 'Y' // returned value mutation must not affect store
	got2, _ := s.Get(wire.NSData, "k")
	if string(got2) != "original" {
		t.Errorf("returned value aliased store: %q", got2)
	}
}

func clientServerPair(t *testing.T, store BlobStore) *Client {
	t.Helper()
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRemoteClientContract(t *testing.T) {
	storeContract(t, clientServerPair(t, NewMemStore()))
}

func TestClientPing(t *testing.T) {
	c := clientServerPair(t, NewMemStore())
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestClientRecordsNetworkTime(t *testing.T) {
	l := netsim.Listen(netsim.Profile{Name: "slow", Latency: 5_000_000 /* 5ms */})
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()

	var rec stats.Recorder
	c, err := Dial(l.Dial, &rec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(wire.NSData, "k", bytes.Repeat([]byte("d"), 1000)); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if s.Network <= 0 {
		t.Error("network time not recorded")
	}
	if s.BytesOut < 1000 {
		t.Errorf("bytesOut = %d", s.BytesOut)
	}
	if s.BytesIn <= 0 {
		t.Error("bytesIn not recorded")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	store := NewMemStore()
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	defer srv.Close()

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(id int) {
			c, err := Dial(l.Dial, nil)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("c%d/k%d", id, j)
				if err := c.Put(wire.NSData, key, []byte(key)); err != nil {
					done <- err
					return
				}
				got, err := c.Get(wire.NSData, key)
				if err != nil || string(got) != key {
					done <- fmt.Errorf("get %s = %q, %v", key, got, err)
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st, _ := store.Stats()
	if st.Objects != 400 {
		t.Errorf("objects = %d, want 400", st.Objects)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after server close")
	}
	srv.Close() // double close is fine
}

func TestServerRejectsUnknownOp(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.WriteFrame(conn, (&wire.Request{Op: wire.Op(200), ReqID: 1}).EncodeV2()); err != nil {
		t.Fatal(err)
	}
	buf, _, err := wire.ReadFrameBuf(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	m, err := wire.DecodeV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != wire.KindResponse || m.Resp.Status != wire.StatusBadRequest || m.Resp.ReqID != 1 {
		t.Errorf("reply = kind %d %+v", m.Kind, m.Resp)
	}
}

// TestClientServerEndToEnd is the happy path over one connection: the
// hello, then every operation — big blobs, batches, and a pipelined burst
// that packs in both directions.
func TestClientServerEndToEnd(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	defer l.Close()
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	big := bytes.Repeat([]byte("B"), 256<<10)
	if err := c.Put(wire.NSData, "big", big); err != nil {
		t.Fatalf("put big: %v", err)
	}
	got, err := c.Get(wire.NSData, "big")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("get big: %d bytes, %v", len(got), err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Put(wire.NSMeta, fmt.Sprintf("m/%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	items, err := c.List(wire.NSMeta, "m/")
	if err != nil || len(items) != 8 {
		t.Fatalf("list: %d items, %v", len(items), err)
	}
	if err := c.BatchPut([]wire.KV{
		{NS: wire.NSMeta, Key: "m/0", Delete: true},
		{NS: wire.NSMeta, Key: "m/9", Val: []byte("nine")},
	}); err != nil {
		t.Fatalf("batchput: %v", err)
	}
	res, err := c.BatchGet([]wire.KV{{NS: wire.NSMeta, Key: "m/9"}, {NS: wire.NSMeta, Key: "m/0"}})
	if err != nil || len(res) != 1 || string(res[0].Val) != "nine" {
		t.Fatalf("batchget: %+v, %v", res, err)
	}
	calls := make([]*Call, 32)
	for i := range calls {
		calls[i] = c.Go(&wire.Request{Op: wire.OpGet, NS: wire.NSData, Key: "big", TraceID: 7, SpanID: 9}, nil)
	}
	for i, call := range calls {
		<-call.Done
		resp, err := call.Response()
		if err != nil || !bytes.Equal(resp.Val, big) {
			t.Fatalf("pipelined get %d: %v", i, err)
		}
	}
}

// rawConn dials l and returns the bare connection, closed at cleanup.
func rawConn(t *testing.T, l *netsim.Listener) net.Conn {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readFrameWithin reads one frame from conn, failing the test if nothing
// (neither a frame nor an error) arrives within five seconds.
func readFrameWithin(t *testing.T, conn net.Conn) ([]byte, error) {
	t.Helper()
	type result struct {
		payload []byte
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		payload, _, err := wire.ReadFrame(conn)
		ch <- result{payload, err}
	}()
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("server neither replied nor closed the connection")
		return nil, nil
	}
}

// TestServerAcksHelloFirst writes the hello and a request in one burst,
// as Dial does, and checks the ack (version 2) precedes the reply.
func TestServerAcksHelloFirst(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	defer l.Close()
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()
	conn := rawConn(t, l)

	var burst bytes.Buffer
	wire.WriteFrame(&burst, wire.AppendHello(nil, 3, 0))
	wire.WriteFrame(&burst, (&wire.Request{Op: wire.OpPing, ReqID: 1}).EncodeV2())
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrameWithin(t, conn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeV2(payload)
	if err != nil || m.Kind != wire.KindHelloAck || m.HelloVer != wire.Version2 {
		t.Fatalf("first frame = %+v, %v; want a hello ack of version 2", m, err)
	}
	if payload, err = readFrameWithin(t, conn); err != nil {
		t.Fatal(err)
	}
	if m, err = wire.DecodeV2(payload); err != nil || m.Kind != wire.KindResponse || m.Resp.ReqID != 1 {
		t.Fatalf("second frame = %+v, %v; want the ping's reply", m, err)
	}
}

// TestServerClosesOnNonV2 checks the server drops a connection, without
// replying, on a frame that is not v2 — a v1-encoded request here — and
// on a hello offering a version below 2.
func TestServerClosesOnNonV2(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	defer l.Close()
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()

	for name, payload := range map[string][]byte{
		// op, ns, key "k", empty val, empty prefix, no items: the v1 codec.
		"v1 request": {byte(wire.OpGet), byte(wire.NSMeta), 1, 'k', 0, 0, 0},
		"hello v1":   wire.AppendHello(nil, 1, 0),
	} {
		conn := rawConn(t, l)
		if _, err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reply, err := readFrameWithin(t, conn); err == nil {
			t.Fatalf("%s: server answered %x instead of closing", name, reply)
		}
	}
}

// TestClientRejectsAckVersion runs the client against a raw server that
// acks version 3: the connection must fail, naming the version.
func TestClientRejectsAckVersion(t *testing.T) {
	cli, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() {
		buf, _, err := wire.ReadFrameBuf(srvConn)
		if err != nil {
			return
		}
		buf.Release()
		if _, err := wire.WriteFrame(srvConn, wire.AppendHelloAck(nil, 3, 0)); err != nil {
			return
		}
		io.Copy(io.Discard, srvConn) // swallow requests; never answer them
	}()
	c, err := Dial(func() (net.Conn, error) { return cli, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(5 * time.Second) // a client that ignores the version hangs here
	err = c.Ping()
	if err == nil || !strings.Contains(err.Error(), "wire version 3") {
		t.Fatalf("ping = %v, want an error naming wire version 3", err)
	}
}

func TestFaultTamper(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.Put(wire.NSMeta, "m/1", []byte("clean metadata bytes"))
	fs.AddRule(FaultRule{Mode: FaultTamper, NS: wire.NSMeta, KeyPart: "m/1"})
	got, err := fs.Get(wire.NSMeta, "m/1")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("clean metadata bytes")) {
		t.Error("tamper rule did not alter value")
	}
	if fs.Triggered() != 1 {
		t.Errorf("triggered = %d", fs.Triggered())
	}
	// Other keys unaffected.
	fs.Put(wire.NSMeta, "m/2", []byte("other"))
	if got, _ := fs.Get(wire.NSMeta, "m/2"); string(got) != "other" {
		t.Error("rule leaked to other key")
	}
	fs.ClearRules()
	if got, _ := fs.Get(wire.NSMeta, "m/1"); string(got) != "clean metadata bytes" {
		t.Error("ClearRules did not restore clean reads")
	}
}

func TestFaultRollback(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.Put(wire.NSData, "b/1", []byte("version-1"))
	fs.Put(wire.NSData, "b/1", []byte("version-2"))
	fs.AddRule(FaultRule{Mode: FaultRollback, NS: wire.NSData})
	got, _ := fs.Get(wire.NSData, "b/1")
	if string(got) != "version-1" {
		t.Errorf("rollback served %q", got)
	}
}

func TestFaultDropAndSwap(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.Put(wire.NSData, "b/1", []byte("one"))
	fs.Put(wire.NSData, "b/2", []byte("two"))

	fs.AddRule(FaultRule{Mode: FaultDrop, NS: wire.NSData, KeyPart: "b/1"})
	if _, err := fs.Get(wire.NSData, "b/1"); !errors.Is(err, wire.ErrNotFound) {
		t.Errorf("drop: %v", err)
	}
	fs.ClearRules()

	fs.AddRule(FaultRule{Mode: FaultSwap, NS: wire.NSData, KeyPart: "b/1", SwapKey: "b/2"})
	got, err := fs.Get(wire.NSData, "b/1")
	if err != nil || string(got) != "two" {
		t.Errorf("swap = %q, %v", got, err)
	}
}

func TestFaultStoreBatchAndList(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.Put(wire.NSData, "b/1", []byte("one"))
	fs.Put(wire.NSData, "b/2", []byte("two"))
	fs.AddRule(FaultRule{Mode: FaultDrop, NS: wire.NSData, KeyPart: "b/1"})

	items, err := fs.List(wire.NSData, "b/")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Key != "b/2" {
		t.Errorf("list with drop = %+v", items)
	}
	res, err := fs.BatchGet([]wire.KV{{NS: wire.NSData, Key: "b/1"}, {NS: wire.NSData, Key: "b/2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("batchget with drop = %+v", res)
	}
	if err := fs.BatchPut([]wire.KV{{NS: wire.NSData, Key: "b/3", Val: []byte("three")}, {NS: wire.NSData, Key: "b/2", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Inner.Get(wire.NSData, "b/2"); !errors.Is(err, wire.ErrNotFound) {
		t.Error("batchput delete did not pass through")
	}
	if st, _ := fs.Stats(); st.Objects != 2 {
		t.Errorf("stats objects = %d", st.Objects)
	}
}

func BenchmarkMemStorePutGet(b *testing.B) {
	s := NewMemStore()
	val := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%1000)
		s.Put(wire.NSData, key, val)
		if _, err := s.Get(wire.NSData, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteRoundTrip(b *testing.B) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Dial, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(wire.NSData, "bench", val); err != nil {
			b.Fatal(err)
		}
	}
}
