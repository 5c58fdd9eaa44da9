package shard

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestBreakerStateMachine drives the three-state machine directly.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{}
	now := time.Unix(1000, 0)
	cooldown := 25 * time.Millisecond

	// Closed: traffic allowed, failures accumulate.
	if ok, tr := b.allow(now, cooldown); !ok || tr != bkNone {
		t.Fatalf("closed allow = %v, %v", ok, tr)
	}
	if tr := b.record(false, 3, now); tr != bkNone {
		t.Fatalf("fail 1 = %v", tr)
	}
	if tr := b.record(false, 3, now); tr != bkNone {
		t.Fatalf("fail 2 = %v", tr)
	}
	if tr := b.record(false, 3, now); tr != bkOpened {
		t.Fatalf("fail 3 = %v, want bkOpened", tr)
	}

	// Open: rejects until cooldown elapses.
	if ok, _ := b.allow(now.Add(cooldown/2), cooldown); ok {
		t.Fatal("open breaker allowed traffic inside cooldown")
	}
	// Half-open: cooldown elapsed, exactly one probe goes out.
	if ok, tr := b.allow(now.Add(cooldown), cooldown); !ok || tr != bkProbing {
		t.Fatalf("post-cooldown allow = %v, %v, want probe", ok, tr)
	}
	if ok, _ := b.allow(now.Add(cooldown), cooldown); ok {
		t.Fatal("second concurrent probe allowed")
	}

	// Probe failure re-opens immediately and restarts the cooldown; the
	// transition is bkReopened, not bkOpened, so the open_now gauge is
	// not double-counted across a flap cycle.
	if tr := b.record(false, 3, now.Add(cooldown)); tr != bkReopened {
		t.Fatalf("probe failure = %v, want bkReopened", tr)
	}
	if ok, _ := b.allow(now.Add(cooldown+cooldown/2), cooldown); ok {
		t.Fatal("reopened breaker allowed traffic inside refreshed cooldown")
	}

	// Second probe succeeds: breaker closes.
	if ok, tr := b.allow(now.Add(3*cooldown), cooldown); !ok || tr != bkProbing {
		t.Fatalf("second probe = %v, %v", ok, tr)
	}
	if tr := b.record(true, 3, now.Add(3*cooldown)); tr != bkClosedAgain {
		t.Fatalf("probe success = %v, want bkClosedAgain", tr)
	}
	if ok, tr := b.allow(now.Add(3*cooldown), cooldown); !ok || tr != bkNone {
		t.Fatalf("closed-again allow = %v, %v", ok, tr)
	}

	// A success while closed resets the failure streak.
	b.record(false, 3, now)
	b.record(false, 3, now)
	if tr := b.record(true, 3, now); tr != bkNone {
		t.Fatalf("success while closed = %v", tr)
	}
	b.record(false, 3, now)
	b.record(false, 3, now)
	if tr := b.record(false, 3, now); tr != bkOpened {
		t.Fatal("streak did not reset: breaker should need threshold fresh failures")
	}
}

// errGetStore injects connection-class read errors on demand; writes
// always pass through.
type errGetStore struct {
	*ssp.MemStore
	fail atomic.Bool
}

func (e *errGetStore) Get(ns wire.NS, key string) ([]byte, error) {
	if e.fail.Load() {
		return nil, io.ErrUnexpectedEOF
	}
	return e.MemStore.Get(ns, key)
}

// TestBreakerOpensSkipsAndRecovers: consecutive read failures on one
// backend open its breaker; while open, reads skip it (hedging to the
// replica immediately) yet still return every durable value — fail-open
// — and after the cooldown a half-open probe against the healed backend
// closes the breaker again.
func TestBreakerOpensSkipsAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	sick := &errGetStore{MemStore: ssp.NewMemStore()}
	healthy := ssp.NewMemStore()
	s, err := New([]Backend{
		{ID: "sick", Store: sick},
		{ID: "healthy", Store: healthy},
	}, Options{
		Replicas: 2, WriteQuorum: 2,
		HedgeDelay:       -1, // strict walk: deterministic observe order
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := s.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: sick backend errors every read. Every Get must still
	// succeed off the healthy replica, and the breaker must open.
	sick.fail.Store(true)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("obj/%d", i)
			v, err := s.Get(wire.NSData, key)
			if err != nil || string(v) != key {
				t.Fatalf("Get(%q) with sick backend = %q, %v; breakers must fail open", key, v, err)
			}
		}
	}
	if c := reg.Counter("shard.breaker.open").Value(); c < 1 {
		t.Fatalf("shard.breaker.open = %d, want >= 1", c)
	}
	if c := reg.Counter("shard.breaker.skip").Value(); c < 1 {
		t.Fatalf("shard.breaker.skip = %d, want >= 1 (open backend still walked)", c)
	}
	if g := reg.Gauge("shard.breaker.open_now").Value(); g != 1 {
		t.Fatalf("shard.breaker.open_now = %d, want 1", g)
	}

	// Phase 2: heal the backend and wait out the cooldown. The next
	// reads probe half-open and close the breaker.
	sick.fail.Store(false)
	time.Sleep(30 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("shard.breaker.close").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after backend healed")
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("obj/%d", i)
			if v, err := s.Get(wire.NSData, key); err != nil || string(v) != key {
				t.Fatalf("Get(%q) after heal = %q, %v", key, v, err)
			}
		}
	}
	if c := reg.Counter("shard.breaker.halfopen").Value(); c < 1 {
		t.Errorf("shard.breaker.halfopen = %d, want >= 1", c)
	}
	if g := reg.Gauge("shard.breaker.open_now").Value(); g != 0 {
		t.Errorf("shard.breaker.open_now = %d after recovery, want 0", g)
	}
}

// TestBreakerDisabled: BreakerThreshold < 0 turns the machinery off —
// no transitions, no skips, reads still correct.
func TestBreakerDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	sick := &errGetStore{MemStore: ssp.NewMemStore()}
	s, err := New([]Backend{
		{ID: "sick", Store: sick},
		{ID: "healthy", Store: ssp.NewMemStore()},
	}, Options{Replicas: 2, WriteQuorum: 2, HedgeDelay: -1, BreakerThreshold: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := s.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	sick.fail.Store(true)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("obj/%d", i)
			if v, err := s.Get(wire.NSData, key); err != nil || string(v) != key {
				t.Fatalf("Get(%q) = %q, %v", key, v, err)
			}
		}
	}
	if c := reg.Counter("shard.breaker.open").Value(); c != 0 {
		t.Fatalf("disabled breaker opened %d times", c)
	}
	if c := reg.Counter("shard.breaker.skip").Value(); c != 0 {
		t.Fatalf("disabled breaker skipped %d reads", c)
	}
}

// TestBgShed: the background-task semaphore sheds (rather than queues or
// spawns) best-effort work beyond BgLimit, counting each shed task.
func TestBgShed(t *testing.T) {
	h := newHarness(t, 2, Options{BgLimit: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	t.Cleanup(func() { close(block) }) // runs before the harness closes the store

	h.store.bg(func() {
		close(started)
		<-block
	})
	<-started

	// The only slot is held: this task must be shed, not queued.
	ran := atomic.Bool{}
	h.store.bg(func() { ran.Store(true) })
	if shed := h.reg.Counter("shard.put.bg_shed").Value(); shed != 1 {
		t.Fatalf("shard.put.bg_shed = %d, want 1", shed)
	}
	if ran.Load() {
		t.Fatal("shed task ran anyway")
	}
}

// TestBgUnbounded: BgLimit < 0 disables shedding entirely.
func TestBgUnbounded(t *testing.T) {
	h := newHarness(t, 2, Options{BgLimit: -1})
	done := make(chan struct{})
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	for i := 0; i < 8; i++ {
		h.store.bg(func() { <-block })
	}
	h.store.bg(func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("unbounded bg task never ran")
	}
	if shed := h.reg.Counter("shard.put.bg_shed").Value(); shed != 0 {
		t.Fatalf("shard.put.bg_shed = %d with BgLimit<0, want 0", shed)
	}
}
