package ssp_test

import (
	"flag"
	"os"
	"testing"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
	"github.com/sharoes/sharoes/internal/workload"
)

// allocReport regenerates the committed allocation baseline:
//
//	go test ./internal/ssp -run TestWriteAllocReport -alloc-report
var allocReport = flag.Bool("alloc-report", false, "rewrite BENCH_alloc.json from fresh benchmark runs")

// allocOut redirects the regenerated report, e.g. for `make bench-alloc`
// to diff a fresh run against the committed baseline without touching it.
var allocOut = flag.String("alloc-out", "../../BENCH_alloc.json", "path the -alloc-report run writes")

// benchVal is the payload size for the codec benchmarks: big enough that
// a stray copy shows up unmistakably in B/op, small enough to stay in
// the first pool size classes.
const benchVal = 4096

// BenchmarkEncodeRequest measures the v2 encode hot path as the client
// writer uses it: appending into a reused buffer. The budget is ≤ 2
// allocs/op; steady state is zero because the scratch buffer stops
// growing after the first iteration.
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
// from the frame. Budget ≤ 2 allocs/op; steady state is zero.
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
// batching both directions, pooled frame reads — with
// a 32-deep pipeline over an unlimited netsim link. No hard budget:
// per-call goroutine and channel machinery allocates by design; this row
// exists so bytes/op regressions (lost pooling, reintroduced copies)
// fail the compare gate.
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
	if err := c.Ping(); err != nil { // take the hello ack before timing
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

// TestWriteAllocReport regenerates BENCH_alloc.json when run with
// -alloc-report. The codec rows carry the hard ≤ 2 allocs/op budget;
// WriteAllocReport enforces it at generation time, so a regression can't
// even produce a baseline file.
func TestWriteAllocReport(t *testing.T) {
	if !*allocReport {
		t.Skip("pass -alloc-report to regenerate BENCH_alloc.json")
	}
	row := func(name string, fn func(*testing.B), budget int64) workload.AllocRow {
		r := testing.Benchmark(fn)
		t.Logf("%s: %v, %d allocs/op, %d B/op", name, r, r.AllocsPerOp(), r.AllocedBytesPerOp())
		return workload.AllocRow{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			MaxAllocs:   budget,
		}
	}
	rep := workload.AllocReport{
		Schema: workload.AllocReportSchema,
		Rows: []workload.AllocRow{
			row("BenchmarkEncodeRequest", BenchmarkEncodeRequest, 2),
			row("BenchmarkDecodeResponse", BenchmarkDecodeResponse, 2),
			row("BenchmarkRoundTripPipelined", BenchmarkRoundTripPipelined, 0),
		},
	}
	f, err := os.Create(*allocOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := workload.WriteAllocReport(f, rep); err != nil {
		t.Fatal(err)
	}
}
