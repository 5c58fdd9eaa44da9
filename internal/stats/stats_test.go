package stats

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
)

func TestRecorderAddAndSnapshot(t *testing.T) {
	var r Recorder
	r.add(obs.ClassNetwork, 100*time.Millisecond)
	r.add(obs.ClassCrypto, 10*time.Millisecond)
	r.add(obs.ClassNone, time.Hour) // charged to no class
	r.AddOp()
	r.AddBytes(128, 4096)

	s := r.Snapshot()
	if s.Network != 100*time.Millisecond || s.Crypto != 10*time.Millisecond {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Ops != 1 || s.BytesOut != 128 || s.BytesIn != 4096 {
		t.Errorf("counters = %+v", s)
	}
	if s.CryptoOps != 1 {
		t.Errorf("cryptoOps = %d", s.CryptoOps)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Time(obs.ClassNetwork)()
	r.AddOp()
	r.AddBytes(1, 2)
	r.Time(obs.ClassCrypto)()
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
}

func TestTime(t *testing.T) {
	var r Recorder
	stop := r.Time(obs.ClassCrypto)
	time.Sleep(2 * time.Millisecond)
	stop()
	s := r.Snapshot()
	if s.Crypto < time.Millisecond {
		t.Errorf("timed crypto = %v, want >= 1ms", s.Crypto)
	}
	if s.CryptoOps != 1 || s.Network != 0 {
		t.Errorf("one crypto section charged %+v", s)
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{Network: time.Second, Ops: 3, BytesIn: 100}
	b := Snapshot{Network: 3 * time.Second, Crypto: time.Second, Ops: 5, BytesIn: 400}
	d := b.Sub(a)
	if d.Network != 2*time.Second || d.Crypto != time.Second || d.Ops != 2 || d.BytesIn != 300 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestCryptoFraction(t *testing.T) {
	// The share is of wall time: OTHER, the untimed remainder, counts.
	b := BreakdownFrom("list", Snapshot{}, Snapshot{Network: 43 * time.Millisecond, Crypto: 7 * time.Millisecond}, 100*time.Millisecond)
	if f := b.CryptoFraction(); f < 0.069 || f > 0.071 {
		t.Errorf("CryptoFraction = %v, want ~0.07", f)
	}
	// Timed sections that overran the wall never read above 100%.
	b = BreakdownFrom("x", Snapshot{}, Snapshot{Crypto: 30 * time.Millisecond}, 10*time.Millisecond)
	if f := b.CryptoFraction(); f != 1 {
		t.Errorf("overrun CryptoFraction = %v, want 1", f)
	}
	if (OpBreakdown{}).CryptoFraction() != 0 {
		t.Error("empty breakdown fraction != 0")
	}
}

func TestBreakdownFrom(t *testing.T) {
	a := Snapshot{}
	b := Snapshot{Network: 80 * time.Millisecond, Crypto: 5 * time.Millisecond}
	br := BreakdownFrom("getattr", a, b, 100*time.Millisecond)
	if br.Network != 80*time.Millisecond || br.Crypto != 5*time.Millisecond || br.Other != 15*time.Millisecond {
		t.Errorf("breakdown = %+v", br)
	}
	if br.Total() != 100*time.Millisecond {
		t.Errorf("Total = %v", br.Total())
	}
	// OTHER never goes negative even when instrumented time exceeds wall time.
	br = BreakdownFrom("x", a, b, 10*time.Millisecond)
	if br.Other != 0 {
		t.Errorf("negative other clamped: %v", br.Other)
	}
}

// TestRecorderConcurrency charges one recorder from concurrent
// goroutines and checks the final sums are exact. Run with -race.
func TestRecorderConcurrency(t *testing.T) {
	var r Recorder
	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.add(obs.ClassNetwork, time.Microsecond)
				r.add(obs.ClassCrypto, time.Microsecond)
				r.AddOp()
				r.AddBytes(1, 2)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	const n = workers * iters
	if s.Ops != n || s.BytesOut != n || s.BytesIn != 2*n || s.CryptoOps != n ||
		s.Network != n*time.Microsecond || s.Crypto != n*time.Microsecond {
		t.Errorf("concurrent totals = %+v", s)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Network: time.Millisecond, Ops: 2}
	if str := s.String(); !strings.Contains(str, "ops=2") {
		t.Errorf("String = %q", str)
	}
}
