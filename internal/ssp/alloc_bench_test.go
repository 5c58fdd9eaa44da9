package ssp_test

import (
	"testing"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// benchVal is the payload size for the codec benchmarks: big enough that
// a stray copy shows up unmistakably in B/op, small enough to stay in
// the first pool size classes.
const benchVal = 4096

// BenchmarkEncodeRequest measures the v2 encode hot path as the client
// writer uses it: appending into a reused buffer. Steady state is zero
// allocs/op because the scratch buffer stops growing after the first
// iteration; TestAllocBudget holds it there.
func BenchmarkEncodeRequest(b *testing.B) {
	q := &wire.Request{
		Op: wire.OpPut, NS: wire.NSData, Key: "bench/key",
		Val: make([]byte, benchVal), ReqID: 7, TraceID: 1, SpanID: 2,
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendRequestV2(buf[:0], q)
	}
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
}

// BenchmarkDecodeResponse measures the v2 decode hot path as the client
// read loop uses it: DecodeV2Into with a reused Msg, values borrowed
// from the frame. Steady state is zero allocs/op (TestAllocBudget).
func BenchmarkDecodeResponse(b *testing.B) {
	frame := wire.AppendResponseV2(nil, &wire.Response{
		Status: wire.StatusOK, ReqID: 9, Val: make([]byte, benchVal),
	})
	var m wire.Msg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeV2Into(frame, &m); err != nil {
			b.Fatal(err)
		}
	}
	if m.Kind != wire.KindResponse || len(m.Resp.Val) != benchVal {
		b.Fatalf("decoded kind=%d val=%d", m.Kind, len(m.Resp.Val))
	}
}

// BenchmarkRoundTripPipelined measures whole-stack cost per call — pack
// batching both directions, pooled frame reads at the server, one
// buffer per frame at the client — with
// a 32-deep pipeline over an unlimited netsim link. Per-call goroutine
// and channel machinery allocates by design; TestAllocBudget caps it so
// lost pooling or a reintroduced copy fails.
func BenchmarkRoundTripPipelined(b *testing.B) {
	store := ssp.NewMemStore()
	if err := store.Put(wire.NSData, "k", make([]byte, benchVal)); err != nil {
		b.Fatal(err)
	}
	l := netsim.Listen(netsim.Unlimited)
	srv := ssp.NewServer(store, nil)
	go srv.Serve(l)
	defer srv.Close()
	c, err := ssp.Dial(l.Dial, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil { // warm the connection before timing
		b.Fatal(err)
	}

	const window = 32
	b.ReportAllocs()
	b.ResetTimer()
	inflight := make(chan *ssp.Call, window)
	done := make(chan error, 1)
	go func() {
		for call := range inflight {
			<-call.Done
			if _, err := call.Response(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		inflight <- c.Go(&wire.Request{Op: wire.OpGet, NS: wire.NSData, Key: "k"}, nil)
	}
	close(inflight)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// TestAllocBudget is the allocation gate on the codec hot paths and the
// pipelined round trip. The ceilings are the last committed measurements:
// encode and decode allocate nothing, and a round trip takes at most 9
// allocations and 10% over 9421 bytes. A lost pool release or a
// reintroduced copy fails it. The race detector makes sync.Pool drop
// items, so race runs skip this test.
func TestAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		fn        func(*testing.B)
		maxAllocs int64
		maxBytes  int64
	}{
		{"EncodeRequest", BenchmarkEncodeRequest, 0, 0},
		{"DecodeResponse", BenchmarkDecodeResponse, 0, 0},
		{"RoundTripPipelined", BenchmarkRoundTripPipelined, 9, 9421 * 110 / 100},
	} {
		r := testing.Benchmark(c.fn)
		allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
		t.Logf("%s: %d allocs/op, %d B/op", c.name, allocs, bytes)
		if allocs > c.maxAllocs || bytes > c.maxBytes {
			t.Errorf("%s: %d allocs/op and %d B/op, budget %d allocs/op and %d B/op",
				c.name, allocs, bytes, c.maxAllocs, c.maxBytes)
		}
	}
}
