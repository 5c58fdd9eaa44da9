package ssp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/wire"
)

// holdStore holds every BatchPut that names the key "hold" until release
// is closed; every other call goes straight through.
type holdStore struct {
	BlobStore
	release chan struct{}
}

func (h *holdStore) BatchPut(items []wire.KV) error {
	for _, kv := range items {
		if kv.Key == "hold" {
			<-h.release
			break
		}
	}
	return h.BlobStore.BatchPut(items)
}

// wideArea is a link whose round trip (2 ms) is over pipelineRTT.
var wideArea = netsim.Profile{Name: "wide", Latency: time.Millisecond}

// dialTo starts a server over store, dials it over link with rec and
// tracer, and pings it once, so the client has measured the link.
func dialTo(t *testing.T, link netsim.Profile, store BlobStore, rec *stats.Recorder, tracer *obs.Tracer) *Client {
	t.Helper()
	l := netsim.Listen(link)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(l.Dial, rec)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(tracer)
	t.Cleanup(func() { c.Close() })
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSendBatchChargesLikeBatchPut: a batch sent with SendBatch over a
// wide-area link is stored, yields nil once, and is charged to the
// recorder and traced exactly as the same batch put with BatchPut — its
// bytes, not its wait, which is the caller's to charge.
func TestSendBatchChargesLikeBatchPut(t *testing.T) {
	items := []wire.KV{
		{NS: wire.NSData, Key: "a", Val: bytes.Repeat([]byte("x"), 1500)},
		{NS: wire.NSMeta, Key: "b", Val: []byte("meta")},
		{NS: wire.NSData, Key: "gone", Delete: true},
	}
	var syncRec, asyncRec stats.Recorder
	syncTr, asyncTr := obs.NewTracer("client"), obs.NewTracer("client")
	syncStore, asyncStore := NewMemStore(), NewMemStore()
	sc := dialTo(t, wideArea, syncStore, &syncRec, syncTr)
	ac := dialTo(t, wideArea, asyncStore, &asyncRec, asyncTr)
	syncBefore, asyncBefore := syncRec.Snapshot(), asyncRec.Snapshot()

	op := syncTr.Start("client.write", obs.ClassNone)
	if err := sc.BatchPut(items); err != nil {
		t.Fatal(err)
	}
	op.End()
	op = asyncTr.Start("client.write", obs.ClassNone)
	errc := ac.SendBatch(items)
	op.End() // the operation may end before the reply arrives
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		t.Fatalf("second value on the reply channel: %v", err)
	default:
	}

	for _, st := range []*MemStore{syncStore, asyncStore} {
		if got, err := st.Get(wire.NSData, "a"); err != nil || len(got) != 1500 {
			t.Fatalf("stored value: %d bytes, %v", len(got), err)
		}
	}
	s, a := syncRec.Snapshot().Sub(syncBefore), asyncRec.Snapshot().Sub(asyncBefore)
	if s.BytesOut != a.BytesOut || s.BytesIn != a.BytesIn || a.BytesOut == 0 {
		t.Errorf("bytes out/in: BatchPut %d/%d, SendBatch %d/%d", s.BytesOut, s.BytesIn, a.BytesOut, a.BytesIn)
	}
	if s.Network <= 0 || a.Network != 0 {
		t.Errorf("network time: BatchPut %v, SendBatch %v; want the wait charged by BatchPut only", s.Network, a.Network)
	}
	rpcSpan := func(tr *obs.Tracer) *obs.Span {
		for _, sp := range tr.Spans() {
			if sp.Name == "rpc.batchput" {
				return sp
			}
		}
		t.Fatal("no rpc.batchput span")
		return nil
	}
	ss, as := rpcSpan(syncTr), rpcSpan(asyncTr)
	if as.Class != obs.ClassNetwork || as.Parent == 0 {
		t.Errorf("SendBatch span: class %v parent %d; want NETWORK under the operation", as.Class, as.Parent)
	}
	if got, want := as.Attrs(), ss.Attrs(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("span annotations: SendBatch %v, BatchPut %v", got, want)
	}
}

// TestSendBatchReportsFailures: a remote refusal and a closed client each
// come back on the reply channel, once.
func TestSendBatchReportsFailures(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.AddRule(FaultRule{Mode: FaultWriteErr})
	c := dialTo(t, wideArea, fs, nil, nil)
	if err := <-c.SendBatch([]wire.KV{{NS: wire.NSData, Key: "k", Val: []byte("v")}}); err == nil {
		t.Fatal("refused batch reported success")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-c.SendBatch([]wire.KV{{NS: wire.NSData, Key: "k", Val: []byte("v")}}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("batch on a closed client: %v, want ErrShutdown", err)
	}
}

// TestBarrierWaitsForEarlierCalls: Barrier returns only once every call
// issued before it is answered, one still held at the SSP included.
func TestBarrierWaitsForEarlierCalls(t *testing.T) {
	hs := &holdStore{BlobStore: NewMemStore(), release: make(chan struct{})}
	c := dialTo(t, wideArea, hs, nil, nil)
	if err := c.Barrier(); err != nil { // nothing in flight
		t.Fatal(err)
	}
	held := c.SendBatch([]wire.KV{{NS: wire.NSData, Key: "hold", Val: []byte("v")}})
	fast := c.SendBatch([]wire.KV{{NS: wire.NSData, Key: "fast", Val: []byte("v")}})
	if err := <-fast; err != nil { // answered while the first is held
		t.Fatal(err)
	}
	barrier := make(chan error, 1)
	go func() { barrier <- c.Barrier() }()
	select {
	case err := <-barrier:
		t.Fatalf("Barrier returned with a batch held at the SSP: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(hs.release)
	select {
	case err := <-barrier:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Barrier did not return once the held batch was answered")
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Get(wire.NSData, "hold"); err != nil {
		t.Fatalf("held batch not stored after the barrier: %v", err)
	}
}

// TestSendBatchWaitsOnAFastLink: over a link whose round trip is under
// pipelineRTT, SendBatch is BatchPut — the reply is in the channel when
// it returns, and the wait is charged as BatchPut charges it — while over
// a wide-area link it returns with the batch still held at the SSP.
func TestSendBatchWaitsOnAFastLink(t *testing.T) {
	var rec stats.Recorder
	fast := dialTo(t, netsim.Unlimited, NewMemStore(), &rec, nil)
	before := rec.Snapshot()
	select {
	case err := <-fast.SendBatch([]wire.KV{{NS: wire.NSData, Key: "k", Val: []byte("v")}}):
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("SendBatch over a fast link returned before the reply")
	}
	if d := rec.Snapshot().Sub(before); d.Network <= 0 || d.BytesOut == 0 {
		t.Errorf("fast-link SendBatch charged network %v, %d bytes out", d.Network, d.BytesOut)
	}

	hs := &holdStore{BlobStore: NewMemStore(), release: make(chan struct{})}
	wide := dialTo(t, wideArea, hs, nil, nil)
	held := wide.SendBatch([]wire.KV{{NS: wire.NSData, Key: "hold", Val: []byte("v")}})
	select {
	case err := <-held:
		t.Fatalf("wide-area SendBatch answered while held at the SSP: %v", err)
	default:
	}
	close(hs.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}
