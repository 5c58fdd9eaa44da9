package ssp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestPipelinedClientStress drives many goroutines through ONE pipelined
// client. Every goroutine writes values that encode its own identity and
// immediately reads them back: if the multiplexer ever matched a response
// to the wrong request (ReqID cross-talk), some goroutine would observe
// another's value or an error belonging to a different key. A FaultStore
// injects ErrNotFound on a key subset so error responses are interleaved
// with successes — errors must land on exactly the calls that earned them.
// Run under -race (make race / CI) for the full effect.
func TestPipelinedClientStress(t *testing.T) {
	store := NewFaultStore(NewMemStore())
	store.AddRule(FaultRule{Mode: FaultDrop, NS: wire.NSData, KeyPart: "missing"})
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		workers = 16
		rounds  = 80
	)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("g%d/k%d", w, i%8)
				want := fmt.Sprintf("w=%d i=%d", w, i)
				if err := c.Put(wire.NSData, key, []byte(want)); err != nil {
					errs <- fmt.Errorf("worker %d put: %w", w, err)
					return
				}
				got, err := c.Get(wire.NSData, key)
				if err != nil {
					errs <- fmt.Errorf("worker %d get %s: %w", w, key, err)
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("worker %d cross-talk: key %s = %q, want %q", w, key, got, want)
					return
				}
				// Injected fault: this key must error — and only this call.
				if _, err := c.Get(wire.NSData, fmt.Sprintf("missing/g%d", w)); !errors.Is(err, wire.ErrNotFound) {
					errs <- fmt.Errorf("worker %d: injected fault returned %v, want ErrNotFound", w, err)
					return
				}
				if i%7 == 0 {
					items, err := c.BatchGet([]wire.KV{
						{NS: wire.NSData, Key: key},
						{NS: wire.NSData, Key: fmt.Sprintf("missing/g%d", w)},
					})
					if err != nil {
						errs <- fmt.Errorf("worker %d batchget: %w", w, err)
						return
					}
					if len(items) != 1 || string(items[0].Val) != want {
						errs <- fmt.Errorf("worker %d batchget cross-talk: %v", w, items)
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
	if store.Triggered() == 0 {
		t.Fatal("fault rule never triggered: the error path went unexercised")
	}
}

// TestCloseWithInflightCalls closes the client while many goroutines have
// calls in flight. Every call must return promptly — success or an error,
// never a hang — and calls issued after Close must fail with ErrShutdown.
func TestCloseWithInflightCalls(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	started := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			for i := 0; ; i++ {
				if _, err := c.Get(wire.NSData, "k"); err != nil {
					// Shutdown surfaced mid-stream; any further call must
					// report ErrShutdown specifically.
					if _, err := c.Get(wire.NSData, "k"); !errors.Is(err, ErrShutdown) {
						t.Errorf("post-close call returned %v, want ErrShutdown", err)
					}
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls did not drain after Close")
	}
}

// TestCloseDeliversEachCallOnce races Close against many goroutines
// issuing Go calls: some answered at once, some stuck at the server until
// after Close, some issued after it. Every call's Done must receive
// exactly one delivery — a reply or an error — and none may hang. Each
// Done has room for two, so a second delivery would show instead of
// blocking its sender.
func TestCloseDeliversEachCallOnce(t *testing.T) {
	store := &gateStore{BlobStore: NewMemStore(), gate: make(chan struct{})}
	defer close(store.gate)
	if err := store.BlobStore.Put(wire.NSData, "fast/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() }) // after the deferred gate opening

	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 200
	calls := make([][]*Call, workers)
	var wg sync.WaitGroup
	started := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := "fast/k"
				if i%4 == 0 {
					key = "slow/k"
				}
				calls[w] = append(calls[w], c.Go(&wire.Request{Op: wire.OpGet, NS: wire.NSData, Key: key}, make(chan *Call, 2)))
				if i == perWorker/4 {
					started <- struct{}{}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	// Close has returned and every Go call with it: each call is
	// delivered by now or never will be.
	timeout := time.After(5 * time.Second)
	for w := range calls {
		for i, call := range calls[w] {
			select {
			case got := <-call.Done:
				if got != call || (call.Err == nil) == (call.Resp == nil) {
					t.Fatalf("worker %d call %d: delivery has Err %v and Resp %v", w, i, call.Err, call.Resp)
				}
			case <-timeout:
				t.Fatalf("worker %d call %d: never delivered", w, i)
			}
			if n := len(call.Done); n != 0 {
				t.Fatalf("worker %d call %d: delivered %d more times", w, i, n)
			}
		}
	}
}
