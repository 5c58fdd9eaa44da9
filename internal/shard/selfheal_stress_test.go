package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/resilience"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestSelfHealStress races writers against link flaps and breaker
// transitions across a 3-shard store whose backends sit behind real
// (simulated) connections and self-healing reconnect clients. It asserts
// model equivalence — every acked write is readable afterwards, from
// whichever replica holds it (reads repair nothing) — and that teardown
// leaks no goroutines. Run under -race this is the concurrency gauntlet
// for the whole self-healing stack.
func TestSelfHealStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	baseline := runtime.NumGoroutine()

	const shards = 3
	reg := obs.NewRegistry()
	var (
		listeners []*netsim.Listener
		servers   []*ssp.Server
		rcs       []*ssp.ReconnectClient
		backends  []Backend
	)
	for i := 0; i < shards; i++ {
		lis := netsim.Listen(netsim.Unlimited)
		lis.Observe(reg)
		srv := ssp.NewServer(ssp.NewMemStore(), nil)
		srv.Observe(reg, nil)
		go srv.Serve(lis)
		rc := ssp.NewReconnectClient(lis.Dial, ssp.ReconnectOptions{
			CallTimeout: 250 * time.Millisecond,
			MaxRedials:  -1, // the server always comes back; never go sticky
			Registry:    reg,
		})
		listeners = append(listeners, lis)
		servers = append(servers, srv)
		rcs = append(rcs, rc)
		backends = append(backends, Backend{ID: fmt.Sprintf("s%d", i), Store: rc})
	}
	s, err := New(backends, Options{
		Replicas: 2, WriteQuorum: 1,
		HedgeDelay: time.Millisecond,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// transient extends the resilience layer's judgment with the two
	// wrappers this stack adds on top: a quorum miss whose cause was a
	// flap, and a server-side error that crossed the wire as ErrRemote.
	transient := func(err error) bool {
		return resilience.Transient(err) ||
			errors.Is(err, ErrQuorum) ||
			errors.Is(err, wire.ErrRemote)
	}

	const writers = 4
	const opsPerWriter = 120
	stop := make(chan struct{})

	// Open the backends' connections, then cut them all before the first
	// writer starts: however quickly the writers finish (an unloaded
	// machine can beat the flapper's first 3 ms tick), their first
	// operations cross a severed link and must redial, so the campaign
	// always exercises the machinery it asserts on below.
	for i := 0; i < 4*shards; i++ {
		key := fmt.Sprintf("warm/%d", i)
		if err := s.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatalf("warm-up put: %v", err)
		}
	}
	for _, srv := range servers {
		srv.SeverConns()
	}

	// Flapper: severs each shard's conns round-robin while writers run.
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				servers[i%shards].SeverConns()
			}
		}
	}()

	// Writers: value equals key, so a retried (possibly duplicated)
	// write is idempotent and the model needs no cross-writer ordering.
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d/obj/%d", w, i)
				acked := false
				for attempt := 0; attempt < 200; attempt++ {
					err := s.Put(wire.NSData, key, []byte(key))
					if err == nil {
						acked = true
						break
					}
					if !transient(err) {
						errc <- fmt.Errorf("unclassified put error on %s: %w", key, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if !acked {
					errc <- fmt.Errorf("put %s never acked through the flaps", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flapWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Model equivalence: every acked key reads back its exact value once
	// the links settle.
	for w := 0; w < writers; w++ {
		for i := 0; i < opsPerWriter; i++ {
			key := fmt.Sprintf("w%d/obj/%d", w, i)
			var v []byte
			var err error
			for attempt := 0; attempt < 200; attempt++ {
				if v, err = s.Get(wire.NSData, key); err == nil {
					break
				}
				if !transient(err) && !errors.Is(err, wire.ErrNotFound) {
					t.Fatalf("unclassified get error on %s: %v", key, err)
				}
				time.Sleep(time.Millisecond)
			}
			if err != nil || string(v) != key {
				t.Fatalf("acked write lost: Get(%s) = %q, %v", key, v, err)
			}
		}
	}

	// The campaign must actually have exercised the machinery.
	if n := reg.Counter("ssp.severs").Value(); n == 0 {
		t.Error("flapper never severed a connection")
	}
	if n := reg.Counter("ssp.reconnect.success").Value(); n == 0 {
		t.Error("no redial ever succeeded")
	}

	// Teardown, then require the goroutine count to settle back to the
	// baseline: nothing in the stack may leak its drain/serve loops.
	if err := s.Close(); err != nil {
		t.Errorf("store close: %v", err)
	}
	for i := 0; i < shards; i++ {
		if err := rcs[i].Close(); err != nil && !errors.Is(err, ssp.ErrShutdown) {
			t.Errorf("rc close: %v", err)
		}
		servers[i].Close()
		listeners[i].Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
