package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// meteredStore is a backend that counts its reads, takes delay to answer
// each one, and fails them all while down.
type meteredStore struct {
	ssp.BlobStore
	delay     time.Duration
	down      atomic.Bool
	gets      atomic.Int64
	batchGets atomic.Int64
}

func (m *meteredStore) Get(ns wire.NS, key string) ([]byte, error) {
	m.gets.Add(1)
	time.Sleep(m.delay)
	if m.down.Load() {
		return nil, errBoom
	}
	return m.BlobStore.Get(ns, key)
}

func (m *meteredStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	m.batchGets.Add(1)
	time.Sleep(m.delay)
	if m.down.Load() {
		return nil, errBoom
	}
	return m.BlobStore.BatchGet(items)
}

// metered is a Store over n metered in-memory backends s0..s(n-1).
type metered struct {
	store *Store
	bks   []*meteredStore
	reg   *obs.Registry
}

func newMetered(t *testing.T, n int, delay time.Duration, opt Options) *metered {
	t.Helper()
	m := &metered{reg: obs.NewRegistry()}
	opt.Registry = m.reg
	backends := make([]Backend, n)
	for i := range backends {
		bk := &meteredStore{BlobStore: ssp.NewMemStore(), delay: delay}
		m.bks = append(m.bks, bk)
		backends[i] = Backend{ID: fmt.Sprintf("s%d", i), Store: bk}
	}
	s, err := New(backends, opt)
	if err != nil {
		t.Fatal(err)
	}
	m.store = s
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return m
}

// reads returns and resets the per-backend counters: single-key Gets in
// total, and the largest number of BatchGets any one backend served — a
// pass sends each backend at most one, so no backend was asked in more
// passes than that.
func (m *metered) reads() (gets, passes int64) {
	for _, bk := range m.bks {
		gets += bk.gets.Swap(0)
		if n := bk.batchGets.Swap(0); n > passes {
			passes = n
		}
	}
	return gets, passes
}

// statBatch writes n objects' metadata and returns the 2n-key batch a
// getattr of them all sends: each metadata blob plus a manifest that does
// not exist (they are directories).
func statBatch(t *testing.T, s *Store, n int) []wire.KV {
	t.Helper()
	var req []wire.KV
	for i := 0; i < n; i++ {
		mk := fmt.Sprintf("m/%d/c/o", i)
		if err := s.Put(wire.NSMeta, mk, []byte(mk)); err != nil {
			t.Fatal(err)
		}
		req = append(req, wire.KV{NS: wire.NSMeta, Key: mk}, wire.KV{NS: wire.NSData, Key: fmt.Sprintf("f/%d/manifest", i)})
	}
	return req
}

// A batch with k absent keys is settled in at most R passes of parallel
// per-backend batches — R-1 round trips more than one with none — and
// never through per-key Gets. (Resolving each miss through the serial
// replica-walking Get made this batch cost 2 round trips per absent key:
// 40 backend Gets and ~92 ms over three 2 ms backends.)
func TestBatchGetAbsentKeysCostAtMostRPasses(t *testing.T) {
	const delay = 5 * time.Millisecond
	m := newMetered(t, 3, delay, Options{Replicas: 2, WriteQuorum: 2})
	req := statBatch(t, m.store, 20)
	m.reads()

	start := time.Now()
	got, err := m.store.BatchGet(req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("BatchGet returned %d items, want the 20 that exist", len(got))
	}
	for i, kv := range got {
		if kv.NS != wire.NSMeta || kv.Key != req[2*i].Key || string(kv.Val) != kv.Key {
			t.Fatalf("item %d = %s/%q=%q: not the asked keys in order", i, kv.NS, kv.Key, kv.Val)
		}
	}
	gets, passes := m.reads()
	if gets != 0 {
		t.Errorf("%d per-key backend Gets, want 0", gets)
	}
	if passes > 2 {
		t.Errorf("%d passes for R=2, want at most R", passes)
	}
	// Two passes of latency, plus slack for a loaded machine.
	if elapsed > 10*delay {
		t.Errorf("40-key batch with 20 absent keys took %v over %v backends", elapsed, delay)
	}

	// Nothing absent: one pass.
	var present []wire.KV
	for i := 0; i < len(req); i += 2 {
		present = append(present, req[i])
	}
	if _, err := m.store.BatchGet(present); err != nil {
		t.Fatal(err)
	}
	if gets, passes := m.reads(); gets != 0 || passes != 1 {
		t.Errorf("all-present batch: %d Gets, %d passes; want 0 and 1", gets, passes)
	}
}

// A key that only a non-primary replica holds (its primary refused the
// write, W=1) is found by the second pass and pushed back to the primary.
func TestBatchGetServesAndRepairsFromSecondary(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 1})
	const key = "m/7/c/o"
	primary := h.store.Ring().Owner(wire.NSMeta, key)
	h.faults[primary].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	if err := h.store.Put(wire.NSMeta, key, []byte("v")); err != nil {
		t.Fatalf("W=1 put with the primary down: %v", err)
	}
	if c := h.copies(wire.NSMeta, key); c != 1 {
		t.Fatalf("key on %d backends before the read, want only the secondary", c)
	}
	h.faults[primary].ClearRules()

	got, err := h.store.BatchGet([]wire.KV{{NS: wire.NSMeta, Key: key}, {NS: wire.NSData, Key: "f/7/manifest"}})
	if err != nil || len(got) != 1 || got[0].Key != key || string(got[0].Val) != "v" {
		t.Fatalf("BatchGet = %+v, %v", got, err)
	}
	h.store.waitIdle()
	if v, err := h.mems[primary].Get(wire.NSMeta, key); err != nil || string(v) != "v" {
		t.Errorf("primary copy after the read = %q, %v; want it repaired", v, err)
	}
	if h.reg.Counter("shard.repair").Value() != 1 {
		t.Errorf("shard.repair = %d, want 1 (the absent manifest repairs nothing)", h.reg.Counter("shard.repair").Value())
	}
}

// A primary whose whole batch fails hands all its keys to their next
// replicas in one further pass; a key nobody returned is then an error,
// not an absence, because a replica that may hold it was never heard.
func TestBatchGetFailedPrimaryFallsOverInOnePass(t *testing.T) {
	m := newMetered(t, 3, 0, Options{Replicas: 2, WriteQuorum: 2, BreakerThreshold: -1})
	var req []wire.KV
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := m.store.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		req = append(req, wire.KV{NS: wire.NSData, Key: key})
	}
	m.bks[0].down.Store(true)
	m.reads()

	got, err := m.store.BatchGet(req)
	if err != nil {
		t.Fatalf("BatchGet with one backend down: %v", err)
	}
	if len(got) != len(req) {
		t.Fatalf("got %d of %d keys", len(got), len(req))
	}
	for i, kv := range got {
		if kv.Key != req[i].Key || string(kv.Val) != kv.Key {
			t.Fatalf("item %d = %q=%q", i, kv.Key, kv.Val)
		}
	}
	if n := m.bks[0].batchGets.Load(); n != 1 {
		t.Errorf("the dead backend was asked %d times, want once", n)
	}
	if gets, passes := m.reads(); gets != 0 || passes != 2 {
		t.Errorf("%d Gets, %d passes; want 0 and 2", gets, passes)
	}

	absent := wire.KV{NS: wire.NSData, Key: "nobody-has-this"}
	_, err = m.store.BatchGet([]wire.KV{absent})
	holdsDead := false
	for _, id := range m.store.replicas(absent.NS, absent.Key).ids {
		holdsDead = holdsDead || id == "s0"
	}
	if holdsDead != errors.Is(err, errBoom) {
		t.Errorf("absent key, dead replica in its set = %v: err = %v", holdsDead, err)
	}
}

// An open breaker moves its backend to the end of every key's walk: the
// batch is served by the healthy replicas without waiting on the sick one,
// which is still asked (fail open) for keys nobody else returned.
func TestBatchGetSkipsOpenBreakerButFailsOpen(t *testing.T) {
	m := newMetered(t, 3, 0, Options{Replicas: 2, WriteQuorum: 2, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	var req []wire.KV
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := m.store.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		req = append(req, wire.KV{NS: wire.NSData, Key: key})
	}
	m.bks[0].down.Store(true)
	if _, err := m.store.BatchGet(req); err != nil { // trips s0's breaker
		t.Fatal(err)
	}
	if m.reg.Counter("shard.breaker.open").Value() != 1 {
		t.Fatalf("breaker did not open: %d", m.reg.Counter("shard.breaker.open").Value())
	}
	m.reads()
	got, err := m.store.BatchGet(req)
	if err != nil || len(got) != len(req) {
		t.Fatalf("BatchGet behind an open breaker: %d items, %v", len(got), err)
	}
	if n := m.bks[0].batchGets.Load(); n != 0 {
		t.Errorf("open-breaker backend asked %d times although every key had a healthy replica", n)
	}
	if m.reg.Counter("shard.breaker.skip").Value() == 0 {
		t.Error("skip not counted")
	}
	// A key only the sick backend's replica set could confirm absent is
	// still put to it, last.
	m.bks[0].down.Store(false)
	m.reads()
	var absent wire.KV
	for i := 0; ; i++ {
		absent = wire.KV{NS: wire.NSData, Key: fmt.Sprintf("absent/%d", i)}
		if m.store.Ring().Owner(absent.NS, absent.Key) == 0 {
			break
		}
	}
	if got, err := m.store.BatchGet([]wire.KV{absent}); err != nil || len(got) != 0 {
		t.Fatalf("absent key behind an open breaker = %+v, %v", got, err)
	}
	if n := m.bks[0].batchGets.Load(); n != 1 {
		t.Errorf("fail-open: sick primary asked %d times, want 1 (last)", n)
	}
}

// Mid-rebalance, before anything was streamed, a batch still finds keys
// that only their old-ring owners hold — in passes, not per-key Gets —
// and repairs the new owners.
func TestBatchGetFallsBackToOldRing(t *testing.T) {
	// R=1: every key s3 owns has no copy on any new-ring member.
	m := newMetered(t, 4, 0, Options{Replicas: 1, WriteQuorum: 1})
	var req []wire.KV
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := m.store.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		req = append(req, wire.KV{NS: wire.NSData, Key: key})
	}
	newRing, err := NewRing(2, []string{"s0", "s1", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.store.mu.Lock()
	oldRing := m.store.ring
	m.store.ring, m.store.old, m.store.dirty = newRing, oldRing, map[string]bool{}
	m.store.mu.Unlock()
	m.reads()

	got, err := m.store.BatchGet(append(req, wire.KV{NS: wire.NSData, Key: "absent"}))
	if err != nil || len(got) != len(req) {
		t.Fatalf("mid-rebalance BatchGet: %d of %d items, %v", len(got), len(req), err)
	}
	for i, kv := range got {
		if kv.Key != req[i].Key || string(kv.Val) != kv.Key {
			t.Fatalf("item %d = %q=%q", i, kv.Key, kv.Val)
		}
	}
	// The new-ring owner, then the old-ring one.
	if gets, passes := m.reads(); gets != 0 || passes > 2 {
		t.Errorf("%d Gets, %d passes; want 0 and at most 2", gets, passes)
	}
	m.store.waitIdle()
	m.store.mu.Lock()
	m.store.ring, m.store.old, m.store.dirty = oldRing, nil, nil
	m.store.mu.Unlock()

	fell := m.reg.Counter("shard.get.fallback").Value()
	if fell == 0 {
		t.Fatal("no key was served by the old-ring fallback")
	}
	if got := m.reg.Counter("shard.repair").Value(); got != fell {
		t.Errorf("%d fallback reads repaired %d new owners", fell, got)
	}
}
