package ssp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
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

// TestMemStoreReturnsCopies: what Get returns is the caller's, so
// writing into it leaves the store as it was. A value given to Put is the
// store's (BlobStore's ownership rule), so the caller does not write into
// it afterwards and nothing here does.
func TestMemStoreReturnsCopies(t *testing.T) {
	s := NewMemStore()
	s.Put(wire.NSData, "k", []byte("original"))
	got, _ := s.Get(wire.NSData, "k")
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

// TestServerRejectsUnknownOp: an op number outside the protocol gets a
// bad-request reply and is counted as ssp.op.unknown, under no name
// built from the number.
func TestServerRejectsUnknownOp(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	reg := obs.NewRegistry()
	srv.Observe(reg, nil)
	go srv.Serve(l)
	defer srv.Close()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.WriteFrame(conn, requestPack(&wire.Request{Op: wire.Op(200), ReqID: 1})); err != nil {
		t.Fatal(err)
	}
	payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	m := onlyElement(t, payload)
	if m.Kind != wire.KindResponse || m.Resp.Status != wire.StatusBadRequest || m.Resp.ReqID != 1 {
		t.Errorf("reply = kind %d %+v", m.Kind, m.Resp)
	}
	counters := reg.Snapshot().Counters
	if counters["ssp.op.unknown"] != 1 {
		t.Errorf("ssp.op.unknown = %d, want 1", counters["ssp.op.unknown"])
	}
	for name, n := range counters {
		if strings.HasPrefix(name, "ssp.op.") && n != 0 && name != "ssp.op.unknown" {
			t.Errorf("%s = %d, want only ssp.op.unknown counted", name, n)
		}
	}
}

// requestPack and responsePack build one frame payload: a pack of the
// given messages.
func requestPack(qs ...*wire.Request) []byte {
	var pk wire.Pack
	pk.Reset()
	for _, q := range qs {
		pk.AddRequest(q)
	}
	return pk.Payload()
}

func responsePack(ps ...*wire.Response) []byte {
	var pk wire.Pack
	pk.Reset()
	for _, p := range ps {
		pk.AddResponse(p)
	}
	return pk.Payload()
}

// onlyElement decodes a frame that must be a pack of one message and
// returns that message.
func onlyElement(t *testing.T, frame []byte) *wire.Msg {
	t.Helper()
	m, err := wire.DecodeV2(frame)
	if err != nil || m.Kind != wire.KindPack || len(m.Pack) != 1 {
		t.Fatalf("frame = %+v, %v; want a pack of one", m, err)
	}
	sub, err := wire.DecodeV2(m.Pack[0])
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestClientServerEndToEnd is the happy path over one connection: every
// operation — big blobs, batches, and a pipelined burst that packs in
// both directions.
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

// tapConn records every byte a client writes and reads, so a test can
// parse the frames that crossed the connection.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	out, in bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// TestOversizedMessagePacksAlone pipelines a BatchPut over 1 MiB, and
// the BatchGet that reads it back, among small calls. Every call must
// round-trip, every frame in either direction must be a pack, and a
// pack of several messages must stay within maxPackBytes: the big
// messages travel in packs of their own.
func TestOversizedMessagePacksAlone(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	defer l.Close()
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()
	tap := &tapConn{}
	c, err := Dial(func() (net.Conn, error) {
		conn, err := l.Dial()
		tap.Conn = conn
		return tap, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var items []wire.KV
	for i := 0; i < 3; i++ {
		items = append(items, wire.KV{NS: wire.NSData, Key: fmt.Sprintf("big/%d", i),
			Val: bytes.Repeat([]byte{byte('a' + i)}, 512<<10)})
	}
	small := func() *Call { return c.Go(&wire.Request{Op: wire.OpPing}, nil) }
	var calls []*Call
	for i := 0; i < 8; i++ {
		calls = append(calls, small())
	}
	calls = append(calls, c.Go(&wire.Request{Op: wire.OpBatchPut, Items: items}, nil))
	for i := 0; i < 8; i++ {
		calls = append(calls, small())
	}
	for i, call := range calls {
		<-call.Done
		if _, err := call.Response(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	keys := make([]wire.KV, len(items))
	for i, kv := range items {
		keys[i] = wire.KV{NS: kv.NS, Key: kv.Key}
	}
	calls = calls[:0]
	for i := 0; i < 8; i++ {
		calls = append(calls, small())
	}
	get := c.Go(&wire.Request{Op: wire.OpBatchGet, Items: keys}, nil)
	for i := 0; i < 8; i++ {
		calls = append(calls, small())
	}
	<-get.Done
	resp, err := get.Response()
	if err != nil || len(resp.Items) != len(items) {
		t.Fatalf("batchget: %+v, %v", resp, err)
	}
	for i, kv := range resp.Items {
		if !bytes.Equal(kv.Val, items[i].Val) {
			t.Fatalf("batchget item %d: %d bytes differ", i, len(kv.Val))
		}
	}
	for i, call := range calls {
		<-call.Done
		if _, err := call.Response(); err != nil {
			t.Fatalf("small call %d: %v", i, err)
		}
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	for dir, stream := range map[string]*bytes.Buffer{"client": &tap.out, "server": &tap.in} {
		alone := 0
		for stream.Len() > 0 {
			payload, _, err := wire.ReadFrame(stream)
			if err != nil {
				t.Fatalf("%s frame: %v", dir, err)
			}
			m, err := wire.DecodeV2(payload)
			if err != nil || m.Kind != wire.KindPack {
				t.Fatalf("%s frame of %d bytes is not a pack: %v", dir, len(payload), err)
			}
			switch {
			case len(payload) > maxPackBytes && len(m.Pack) == 1:
				alone++
			case len(payload) > maxPackBytes:
				t.Fatalf("%s pack of %d messages is %d bytes, over %d", dir, len(m.Pack), len(payload), maxPackBytes)
			}
		}
		if alone != 1 {
			t.Fatalf("%s wrote %d oversized messages in packs of their own, want 1", dir, alone)
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

// TestServerClosesOnNonV2 checks the server drops a connection, without
// replying, on any frame that is not a pack of requests: a bare request,
// a pack holding a response, a nested pack, and an unknown kind byte.
func TestServerClosesOnNonV2(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	defer l.Close()
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()

	inner := requestPack(&wire.Request{Op: wire.OpPing, ReqID: 1})
	nested := append([]byte{wire.KindPack, 1, 0, 0, 0, byte(len(inner))}, inner...)
	for name, payload := range map[string][]byte{
		"bare request":            (&wire.Request{Op: wire.OpPing, ReqID: 1}).EncodeV2(),
		"pack holding a response": responsePack(&wire.Response{Status: wire.StatusOK, ReqID: 1}),
		"nested pack":             nested,
		"unknown kind":            {0xff},
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

// TestClientFailsOnNonPack is the client-side twin: a server frame that
// is not a pack of responses fails every pending call with an error
// wrapping wire.ErrBadMessage.
func TestClientFailsOnNonPack(t *testing.T) {
	for name, reply := range map[string][]byte{
		"bare response":          (&wire.Response{Status: wire.StatusOK, ReqID: 1}).EncodeV2(),
		"pack holding a request": requestPack(&wire.Request{Op: wire.OpPing, ReqID: 1}),
		"unknown kind":           {0xff},
	} {
		t.Run(name, func(t *testing.T) {
			cli, srvConn := net.Pipe()
			defer srvConn.Close()
			go io.Copy(io.Discard, srvConn) // swallow requests; never answer them
			c, err := Dial(func() (net.Conn, error) { return cli, nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			calls := []*Call{
				c.Go(&wire.Request{Op: wire.OpPing}, nil), // ReqID 1, which the reply names
				c.Go(&wire.Request{Op: wire.OpStats}, nil),
			}
			if _, err := wire.WriteFrame(srvConn, reply); err != nil {
				t.Fatal(err)
			}
			for i, call := range calls {
				// A client that accepts the frame hangs here.
				select {
				case <-call.Done:
				case <-time.After(5 * time.Second):
					t.Fatalf("call %d: no delivery within 5s", i)
				}
				if !errors.Is(call.Err, wire.ErrBadMessage) {
					t.Errorf("call %d: err = %v, want one wrapping wire.ErrBadMessage", i, call.Err)
				}
			}
		})
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
