package ssp

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestConcurrentMixedOps hammers one server with every request type from
// many clients at once, over deliberately overlapping keys: contention on
// the store and the per-connection codecs is the point. Run under -race
// (make race / CI) to make it a data-race detector, not just a smoke test.
func TestConcurrentMixedOps(t *testing.T) {
	store := NewMemStore()
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	defer srv.Close()

	const (
		workers = 8
		rounds  = 60
		shared  = 16 // keys every worker fights over
	)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(l.Dial, nil)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("shared/k%d", (w+i)%shared)
				switch i % 6 {
				case 0:
					if err := c.Put(wire.NSData, key, []byte(key)); err != nil {
						errs <- fmt.Errorf("put: %w", err)
						return
					}
				case 1:
					got, err := c.Get(wire.NSData, key)
					if err == nil && string(got) != key {
						errs <- fmt.Errorf("get %s returned %q", key, got)
						return
					}
				case 2:
					if err := c.Delete(wire.NSData, key); err != nil {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				case 3:
					if _, err := c.List(wire.NSData, "shared/"); err != nil {
						errs <- fmt.Errorf("list: %w", err)
						return
					}
				case 4:
					batch := []wire.KV{
						{NS: wire.NSData, Key: key, Val: []byte(key)},
						{NS: wire.NSMeta, Key: key, Val: []byte("m")},
					}
					if err := c.BatchPut(batch); err != nil {
						errs <- fmt.Errorf("batchput: %w", err)
						return
					}
				default:
					if _, err := c.Stats(); err != nil {
						errs <- fmt.Errorf("stats: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPackDispatchSharedClient is the regression test for the server's
// pack dispatch: two goroutines share ONE pipelined client over loopback
// TCP and issue bursts of asynchronous calls, so the client's writer
// coalesces them into multi-request pack frames. The server must hold one
// buffer reference per sub-message before it dispatches the first; taking
// them one at a time let an early worker release the frame buffer back to
// its pool under the sub-messages still to be decoded ("wire: Buf
// over-released", or a put that stores another frame's bytes). Run under
// -race (make race / CI).
func TestPackDispatchSharedClient(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(lis)
	defer srv.Close()

	c, err := Dial(func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		workers = 2
		bursts  = 150
		burst   = 8 // puts per burst, then as many gets: 2 × 150 × 16 = 4800 calls
	)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			done := make(chan *Call, burst)
			round := func(op wire.Op, i int) error {
				for j := 0; j < burst; j++ {
					key := fmt.Sprintf("w%d/k%d", w, j)
					req := &wire.Request{Op: op, NS: wire.NSData, Key: key}
					if op == wire.OpPut {
						req.Val = []byte(fmt.Sprintf("%s@%d", key, i))
					}
					c.Go(req, done)
				}
				for j := 0; j < burst; j++ {
					call := <-done
					resp, err := call.Response()
					if err != nil {
						return fmt.Errorf("worker %d %v %s: %w", w, op, call.Req.Key, err)
					}
					if want := fmt.Sprintf("%s@%d", call.Req.Key, i); op == wire.OpGet && string(resp.Val) != want {
						return fmt.Errorf("worker %d: %s = %q, want %q", w, call.Req.Key, resp.Val, want)
					}
				}
				return nil
			}
			for i := 0; i < bursts; i++ {
				if err := round(wire.OpPut, i); err != nil {
					errs <- err
					return
				}
				if err := round(wire.OpGet, i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
