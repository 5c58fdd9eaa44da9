package ssp

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/wire"
)

// laneStore fakes a sharded inner store: a MemStore that implements
// Router (keys route by a prefix digit), recording every BatchPut's lane
// composition.
type laneStore struct {
	*MemStore
	routes int

	mu      sync.Mutex
	batches [][]wire.KV
}

func newLaneStore(routes int) *laneStore {
	return &laneStore{MemStore: NewMemStore(), routes: routes}
}

func (l *laneStore) Routes() int { return l.routes }

func (l *laneStore) RouteID(ns wire.NS, key string) int {
	// "lane<N>/..." keys route to lane N; everything else to lane 0.
	if strings.HasPrefix(key, "lane") && len(key) > 4 {
		return int(key[4]-'0') % l.routes
	}
	return 0
}

func (l *laneStore) BatchPut(items []wire.KV) error {
	l.mu.Lock()
	l.batches = append(l.batches, append([]wire.KV(nil), items...))
	l.mu.Unlock()
	return l.MemStore.BatchPut(items)
}

// A write-behind flush over a routing store must split into one BatchPut
// per backend lane, never a mixed frame.
func TestWriteBehindShardsFlushesPerLane(t *testing.T) {
	inner := newLaneStore(3)
	wb := NewWriteBehind(inner, WriteBehindOptions{MaxItems: 1 << 20, MaxDelay: -1})

	var want []wire.KV
	for lane := 0; lane < 3; lane++ {
		for i := 0; i < 5; i++ {
			kv := wire.KV{NS: wire.NSData, Key: "lane" + string(rune('0'+lane)) + "/k" + string(rune('a'+i)), Val: []byte{byte(lane)}}
			want = append(want, kv)
			if err := wb.Put(kv.NS, kv.Key, kv.Val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wb.Barrier(); err != nil {
		t.Fatal(err)
	}

	inner.mu.Lock()
	batches := inner.batches
	inner.mu.Unlock()
	if len(batches) != 3 {
		t.Fatalf("flush produced %d BatchPuts, want one per lane (3)", len(batches))
	}
	seen := 0
	for _, b := range batches {
		lane := inner.RouteID(b[0].NS, b[0].Key)
		for _, kv := range b {
			if inner.RouteID(kv.NS, kv.Key) != lane {
				t.Fatalf("mixed lanes in one BatchPut: %q with lane-%d keys", kv.Key, lane)
			}
		}
		seen += len(b)
	}
	if seen != len(want) {
		t.Fatalf("%d items flushed, want %d", seen, len(want))
	}
	for _, kv := range want {
		v, err := wb.Get(kv.NS, kv.Key)
		if err != nil || v[0] != kv.Val[0] {
			t.Fatalf("Get(%q) = %v, %v", kv.Key, v, err)
		}
	}
}

// A single-lane batch must not pay the goroutine fan-out, and a
// non-routing inner store keeps the old single-BatchPut path.
func TestWriteBehindLaneDegenerateCases(t *testing.T) {
	inner := newLaneStore(3)
	wb := NewWriteBehind(inner, WriteBehindOptions{MaxItems: 1 << 20, MaxDelay: -1})
	for i := 0; i < 4; i++ {
		if err := wb.Put(wire.NSData, "lane1/k"+string(rune('a'+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Barrier(); err != nil {
		t.Fatal(err)
	}
	inner.mu.Lock()
	n := len(inner.batches)
	inner.mu.Unlock()
	if n != 1 {
		t.Fatalf("single-lane flush produced %d BatchPuts, want 1", n)
	}

	plain := NewMemStore()
	wb2 := NewWriteBehind(plain, WriteBehindOptions{MaxItems: 1 << 20, MaxDelay: -1})
	if err := wb2.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := wb2.Barrier(); err != nil {
		t.Fatal(err)
	}
	if v, err := plain.Get(wire.NSData, "k"); err != nil || string(v) != "v" {
		t.Fatalf("plain inner store missed the flush: %v, %v", v, err)
	}
}

// errLane fails BatchPut for one lane only; the flush must surface the
// failure as the usual sticky deferred error while other lanes land.
type errLane struct {
	*laneStore
	failLane int
}

func (e *errLane) BatchPut(items []wire.KV) error {
	if len(items) > 0 && e.RouteID(items[0].NS, items[0].Key) == e.failLane {
		return ErrInjectedWrite
	}
	return e.laneStore.BatchPut(items)
}

func TestWriteBehindLaneErrorSticks(t *testing.T) {
	inner := &errLane{laneStore: newLaneStore(2), failLane: 1}
	wb := NewWriteBehind(inner, WriteBehindOptions{MaxItems: 1 << 20, MaxDelay: -1})
	if err := wb.Put(wire.NSData, "lane0/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Put(wire.NSData, "lane1/b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Barrier(); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("Barrier = %v, want the failing lane's error", err)
	}
	if err := wb.Barrier(); err != nil {
		t.Fatalf("sticky lane error did not clear: %v", err)
	}
	if v, err := inner.MemStore.Get(wire.NSData, "lane0/a"); err != nil || string(v) != "x" {
		t.Fatalf("healthy lane did not land: %v, %v", v, err)
	}
}

// FaultSlow delays matching Gets without altering the value.
func TestFaultSlow(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if err := fs.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(FaultRule{Mode: FaultSlow, NS: wire.NSData, Delay: 30 * time.Millisecond})
	start := time.Now()
	v, err := fs.Get(wire.NSData, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("slow Get = %q, %v; value must be served honestly", v, err)
	}
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Fatalf("slow Get returned in %v, want >= 30ms", e)
	}
	if fs.Triggered() == 0 {
		t.Error("FaultSlow not counted as triggered")
	}
	// Writes are unaffected.
	start = time.Now()
	if err := fs.Put(wire.NSData, "k2", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 20*time.Millisecond {
		t.Errorf("Put took %v under a read-path FaultSlow rule", e)
	}
}

// Path-aware matching: a write fault and a read fault on the same store
// coexist (a fully lost shard), and NS 0 wildcards every namespace.
func TestFaultRulesCoexistAndWildcard(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if err := fs.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(wire.NSMeta, "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Shard loss: refuses writes AND denies reads, via wildcard rules —
	// declaration order must not matter for the read path.
	fs.AddRule(FaultRule{Mode: FaultWriteErr})
	fs.AddRule(FaultRule{Mode: FaultDrop})
	if err := fs.Put(wire.NSData, "k", []byte("v2")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("Put on lost shard = %v, want ErrInjectedWrite", err)
	}
	if _, err := fs.Get(wire.NSData, "k"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("Get on lost shard = %v, want not-found", err)
	}
	if _, err := fs.Get(wire.NSMeta, "m"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("wildcard NS did not match NSMeta: %v", err)
	}
	fs.ClearRules()
	if v, err := fs.Get(wire.NSData, "k"); err != nil || string(v) != "v" {
		t.Fatalf("shard did not recover after ClearRules: %q, %v", v, err)
	}
}
