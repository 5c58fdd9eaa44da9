package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestRaceRegistry hammers one registry from many goroutines — the
// shape of concurrent client sessions sharing a metrics namespace —
// while a reader snapshots continuously. Run with -race.
func TestRaceRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			var buf bytes.Buffer
			_ = r.WriteJSON(&buf)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops")
			h := r.Histogram("lat.ns")
			g := r.Gauge("live")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				g.Add(1)
				g.Add(-1)
				// Interleave get-or-create with a shared name to stress
				// the registry maps too.
				r.Counter("w").Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	if got := r.Counter("ops").Value(); got != workers*iters {
		t.Fatalf("ops = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat.ns").Snapshot().Count; got != workers*iters {
		t.Fatalf("hist count = %d, want %d", got, workers*iters)
	}
}

// TestRaceTracer runs a stacked client tracer and a shared server
// tracer concurrently: sessions serialize their own span stacks, but a
// server tracer receives StartRemote/End from many handler goroutines.
func TestRaceTracer(t *testing.T) {
	server := NewTracer("ssp")
	const handlers = 8
	const iters = 500

	var wg sync.WaitGroup
	for h := 0; h < handlers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			client := NewTracer("client") // one session each
			for i := 0; i < iters; i++ {
				root := client.Start("client.op", ClassNone)
				tid, sid := client.Current()
				remote := server.StartRemote(tid, sid, "ssp.get", ClassNone)
				remote.Annotate("h", "x")
				remote.End()
				root.End()
			}
			if got := len(client.Spans()); got != iters {
				t.Errorf("client spans = %d, want %d", got, iters)
			}
		}(h)
	}
	// Concurrent span reader.
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, sp := range server.Spans() {
					_ = sp.Attrs()
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rd.Wait()

	if got := len(server.Spans()); got != handlers*iters {
		t.Fatalf("server spans = %d, want %d", got, handlers*iters)
	}
}
