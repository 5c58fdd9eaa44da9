package obs_test

import (
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/stats"
)

// The per-class cost totals of this package's Class enum are kept by
// stats.Recorder. These tests check that it honours the classes: the
// two charged classes land in their own buckets, ClassNone is
// discarded, and concurrent charges sum exactly.

func TestCostAccount(t *testing.T) {
	var r stats.Recorder
	r.Time(obs.ClassNetwork)()
	r.Time(obs.ClassCrypto)()
	r.Time(obs.ClassNone)() // discarded
	r.AddOp()
	r.AddBytes(100, 200)

	s := r.Snapshot()
	if s.CryptoOps != 1 {
		t.Fatalf("cryptoOps = %d, want 1", s.CryptoOps)
	}
	if s.Ops != 1 {
		t.Fatalf("ops = %d", s.Ops)
	}
	if s.BytesOut != 100 || s.BytesIn != 200 {
		t.Fatalf("bytes = %d/%d", s.BytesOut, s.BytesIn)
	}

	// A ClassNone section charges neither bucket.
	before := r.Snapshot()
	stop := r.Time(obs.ClassNone)
	time.Sleep(time.Millisecond)
	stop()
	if d := r.Snapshot().Sub(before); d != (stats.Snapshot{}) {
		t.Fatalf("ClassNone charged %+v", d)
	}

	// A timed section lands in its own class only.
	before = r.Snapshot()
	stop = r.Time(obs.ClassNetwork)
	time.Sleep(time.Millisecond)
	stop()
	d := r.Snapshot().Sub(before)
	if d.Network < time.Millisecond || d.Crypto != 0 || d.CryptoOps != 0 {
		t.Fatalf("network section charged %+v", d)
	}

	var nilR *stats.Recorder
	nilR.Time(obs.ClassCrypto)()
	nilR.Time(obs.ClassNetwork)()
	nilR.AddOp()
	if s := nilR.Snapshot(); s != (stats.Snapshot{}) {
		t.Fatalf("nil account not inert: %+v", s)
	}
}

// TestRaceCostAccount charges both classes from concurrent goroutines
// and checks the final counts are exact. Run with -race.
func TestRaceCostAccount(t *testing.T) {
	var r stats.Recorder
	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Time(obs.ClassNetwork)()
				r.Time(obs.ClassCrypto)()
				r.AddOp()
				r.AddBytes(1, 2)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.CryptoOps != workers*iters {
		t.Fatalf("cryptoOps = %d", s.CryptoOps)
	}
	if s.Ops != workers*iters {
		t.Fatalf("ops = %d", s.Ops)
	}
	if s.BytesOut != workers*iters || s.BytesIn != 2*workers*iters {
		t.Fatalf("bytes = %d/%d", s.BytesOut, s.BytesIn)
	}
	if s.Network <= 0 || s.Crypto <= 0 {
		t.Fatalf("class totals = %v/%v", s.Network, s.Crypto)
	}
}
