package ssp

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/wire"
)

// loopbackPair serves store on a loopback TCP port and dials one client
// to it.
func loopbackPair(tb testing.TB, store BlobStore) *Client {
	tb.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(store, nil)
	go srv.Serve(lis)
	tb.Cleanup(func() { srv.Close() })
	c, err := Dial(func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) }, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// TestStoredValueOutlivesLaterFrames: the SSP stores a write's values in
// the frame they arrived in, so no frame's memory may ever be read into
// again. Values stored by one BatchPut over a real connection stay
// byte-identical after hundreds of later frames of the same sizes on that
// connection, writes and reads both; a server that recycled its frames
// would have overwritten them.
func TestStoredValueOutlivesLaterFrames(t *testing.T) {
	store := NewMemStore()
	c := loopbackPair(t, store)
	keep := []wire.KV{
		{NS: wire.NSData, Key: "keep/block", Val: bytes.Repeat([]byte{0xA5}, 4096)},
		{NS: wire.NSMeta, Key: "keep/meta", Val: bytes.Repeat([]byte{0x5A}, 300)},
	}
	if err := c.BatchPut(keep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		junk := bytes.Repeat([]byte{byte(i)}, 4096)
		err := c.BatchPut([]wire.KV{
			{NS: wire.NSData, Key: fmt.Sprintf("junk/%d", i%4), Val: junk},
			{NS: wire.NSMeta, Key: "junk/meta", Val: junk[:300]},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if _, err := c.BatchGet([]wire.KV{{NS: wire.NSData, Key: "junk/0"}, {NS: wire.NSMeta, Key: "keep/meta"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, kv := range keep {
		got, err := store.Get(kv.NS, kv.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, kv.Val) {
			t.Fatalf("%s after 300 later frames differs from what was stored", kv.Key)
		}
	}
}

// BenchmarkReadBehindBatch times a small read that the SSP serves while a
// write batch is in flight on the same connection: each iteration sends a
// BatchPut without waiting (Go), then times a two-key BatchGet of 300 B
// values, then waits for the batch's reply. One client over loopback TCP
// to a server over a MemStore. "none" is the read alone; the others put
// 1 × 64 B, 6 × 2 KiB and 32 × 4 KiB. read-ns/op is the read's own time,
// ns/op the whole iteration; on two CPUs every pass the SSP makes over
// the batch's bytes runs while the read waits (docs/TRANSPORT.md §1.2).
func BenchmarkReadBehindBatch(b *testing.B) {
	for _, bc := range []struct {
		name       string
		items, val int
	}{{"none", 0, 0}, {"64B", 1, 64}, {"12KiB", 6, 2 << 10}, {"128KiB", 32, 4 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			store := NewMemStore()
			read := []wire.KV{{NS: wire.NSMeta, Key: "r/0"}, {NS: wire.NSMeta, Key: "r/1"}}
			for _, kv := range read {
				if err := store.Put(kv.NS, kv.Key, bytes.Repeat([]byte{1}, 300)); err != nil {
					b.Fatal(err)
				}
			}
			batch := make([]wire.KV, bc.items)
			for i := range batch {
				batch[i] = wire.KV{NS: wire.NSData, Key: fmt.Sprintf("b/%d", i), Val: bytes.Repeat([]byte{byte(i)}, bc.val)}
			}
			c := loopbackPair(b, store)
			if err := c.Ping(); err != nil {
				b.Fatal(err)
			}
			var readNs time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var put *Call
				if len(batch) > 0 {
					put = c.Go(&wire.Request{Op: wire.OpBatchPut, Items: batch}, nil)
				}
				start := time.Now()
				got, err := c.BatchGet(read)
				readNs += time.Since(start)
				if err != nil || len(got) != len(read) {
					b.Fatalf("read behind the batch: %d of %d values, %v", len(got), len(read), err)
				}
				if put != nil {
					<-put.Done
					if _, err := put.Response(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(readNs.Nanoseconds())/float64(b.N), "read-ns/op")
		})
	}
}
