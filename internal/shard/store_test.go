package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// harness is a shard.Store over n in-memory backends, each individually
// reachable and wrapped in a FaultStore for injection.
type harness struct {
	store  *Store
	faults []*ssp.FaultStore
	mems   []*ssp.MemStore
	reg    *obs.Registry
}

func newHarness(t *testing.T, n int, opt Options) *harness {
	t.Helper()
	h := &harness{reg: obs.NewRegistry()}
	if opt.Registry == nil {
		opt.Registry = h.reg
	}
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		mem := ssp.NewMemStore()
		f := ssp.NewFaultStore(mem)
		h.mems = append(h.mems, mem)
		h.faults = append(h.faults, f)
		backends[i] = Backend{ID: fmt.Sprintf("s%d", i), Store: f}
	}
	s, err := New(backends, opt)
	if err != nil {
		t.Fatal(err)
	}
	h.store = s
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return h
}

// copies reports how many backends physically hold (ns, key), bypassing
// fault injection.
func (h *harness) copies(ns wire.NS, key string) int {
	n := 0
	for _, m := range h.mems {
		if _, err := m.Get(ns, key); err == nil {
			n++
		}
	}
	return n
}

func TestStoreReplicatesToR(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := h.store.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if c := h.copies(wire.NSData, key); c != 2 {
			t.Fatalf("%q lives on %d backends, want exactly R=2", key, c)
		}
		v, err := h.store.Get(wire.NSData, key)
		if err != nil || string(v) != key {
			t.Fatalf("Get(%q) = %q, %v", key, v, err)
		}
	}
	// Every shard holds something: the ring actually spreads.
	for i, m := range h.mems {
		st, _ := m.Stats()
		if st.Objects == 0 {
			t.Errorf("backend s%d holds no objects; ring not spreading", i)
		}
	}
}

func TestStoreGetMissing(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2})
	if _, err := h.store.Get(wire.NSData, "nope"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want wire.ErrNotFound", err)
	}
	if err := h.store.Delete(wire.NSData, "nope"); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil (single-store contract)", err)
	}
}

// Quorum write with one shard down: W=1 of R=2 must ack even when one
// replica's writes fail, and the value stays readable.
func TestQuorumWriteWithShardDown(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 1})
	// Whole-backend write fault: NS 0 wildcard on shard 0.
	h.faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})

	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("obj/%d", i)
		if err := h.store.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatalf("Put(%q) with one shard down: %v", key, err)
		}
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("obj/%d", i)
		v, err := h.store.Get(wire.NSData, key)
		if err != nil || string(v) != key {
			t.Fatalf("Get(%q) = %q, %v", key, v, err)
		}
	}
}

// With every replica of a key failing writes, quorum is unreachable: the
// write must fail with ErrQuorum, wrapping the replica's error.
func TestQuorumLoss(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	for _, f := range h.faults {
		f.AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	}
	err := h.store.Put(wire.NSData, "k", []byte("v"))
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("Put under total write failure = %v, want ErrQuorum", err)
	}
	if !errors.Is(err, ssp.ErrInjectedWrite) {
		t.Fatalf("quorum error does not wrap the replica error: %v", err)
	}

	// W=1 with only SOME replicas failing still acks.
	h2 := newHarness(t, 3, Options{Replicas: 3, WriteQuorum: 1})
	h2.faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	h2.faults[1].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	if err := h2.store.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatalf("W=1 write with 2/3 replicas down: %v", err)
	}
	if got := h2.reg.Counter("shard.put.bg_fail").Value(); got != 2 {
		t.Errorf("shard.put.bg_fail = %d, want the 2 tolerated replica failures", got)
	}
}

// A quorum loss is reported once, by the call that lost it: after the
// fault clears, the next write, List and Stats run normally.
func TestQuorumLossReportedOnce(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	h.faults[2].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	var batch []wire.KV
	for i := 0; i < 10; i++ {
		batch = append(batch, wire.KV{NS: wire.NSData, Key: fmt.Sprintf("b/%d", i), Val: []byte("x")})
	}
	if err := h.store.BatchPut(batch); !errors.Is(err, ErrQuorum) {
		t.Fatalf("BatchPut W=2 with s2 refusing writes = %v, want ErrQuorum", err)
	}
	h.faults[2].ClearRules()

	if err := h.store.BatchPut([]wire.KV{{NS: wire.NSData, Key: "fresh", Val: []byte("y")}}); err != nil {
		t.Fatalf("BatchPut of an unrelated key after the fault cleared = %v", err)
	}
	if c := h.copies(wire.NSData, "fresh"); c != 2 {
		t.Fatalf("fresh on %d backends, want 2", c)
	}
	if _, err := h.store.List(wire.NSData, ""); err != nil {
		t.Fatalf("List after the fault cleared = %v", err)
	}
	if _, err := h.store.Stats(); err != nil {
		t.Fatalf("Stats after the fault cleared = %v", err)
	}
}

// slowWrites delays every write to its backend.
type slowWrites struct {
	ssp.BlobStore
	delay time.Duration
}

func (s slowWrites) Put(ns wire.NS, key string, val []byte) error {
	time.Sleep(s.delay)
	return s.BlobStore.Put(ns, key, val)
}

func (s slowWrites) BatchPut(items []wire.KV) error {
	time.Sleep(s.delay)
	return s.BlobStore.BatchPut(items)
}

// A write returns only once every replica answered, even when W is
// already met: with W=1 and one replica 50 ms slow, both copies exist the
// moment Put returns.
func TestPutWaitsForEveryReplica(t *testing.T) {
	mems := []*ssp.MemStore{ssp.NewMemStore(), ssp.NewMemStore(), ssp.NewMemStore()}
	backends := make([]Backend, len(mems))
	for i, m := range mems {
		backends[i] = Backend{ID: fmt.Sprintf("s%d", i), Store: m}
	}
	const key = "slow/replica"
	ring, err := NewRing(1, []string{"s0", "s1", "s2"}, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	slow := ring.Lookup(wire.NSData, key, 2)[1]
	backends[slow].Store = slowWrites{BlobStore: mems[slow], delay: 50 * time.Millisecond}
	s, err := New(backends, Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	if err := s.Put(wire.NSData, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, m := range mems {
		if _, err := m.Get(wire.NSData, key); err == nil {
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("%q on %d backends when Put returned, want both replicas", key, copies)
	}
}

// Replica failures a BatchPut's quorum tolerated are counted, one per
// failed replica write.
func TestBatchPutCountsToleratedFailures(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 1})
	h.faults[2].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	var batch []wire.KV
	want := int64(0)
	for i := 0; i < 30; i++ {
		kv := wire.KV{NS: wire.NSData, Key: fmt.Sprintf("q/%d", i), Val: []byte("x")}
		batch = append(batch, kv)
		if slices.Contains(h.store.replicas(kv.NS, kv.Key).ids, "s2") {
			want++
		}
	}
	if err := h.store.BatchPut(batch); err != nil {
		t.Fatalf("BatchPut W=1 with s2 refusing writes: %v", err)
	}
	if want == 0 {
		t.Fatal("no key has s2 among its replicas")
	}
	if got := h.reg.Counter("shard.put.bg_fail").Value(); got != want {
		t.Errorf("shard.put.bg_fail = %d, want %d (one per item replicated to s2)", got, want)
	}
}

// Hedged read: with the primary injected slow, the hedge to the healthy
// replica must win, fast and with the right value.
func TestHedgedReadBeatsSlowPrimary(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2, HedgeDelay: 2 * time.Millisecond})
	const key = "hedge/victim"
	if err := h.store.Put(wire.NSData, key, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	// Find the primary and make it slow on every read.
	primary := h.store.Ring().Owner(wire.NSData, key)
	h.faults[primary].AddRule(ssp.FaultRule{Mode: ssp.FaultSlow, Delay: 300 * time.Millisecond})

	start := time.Now()
	v, err := h.store.Get(wire.NSData, key)
	elapsed := time.Since(start)
	if err != nil || string(v) != "fresh" {
		t.Fatalf("hedged Get = %q, %v", v, err)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("hedged read took %v; the hedge did not win over the %v-slow primary", elapsed, 300*time.Millisecond)
	}
	if h.reg.Counter("shard.get.hedged").Value() == 0 {
		t.Error("no hedge was recorded")
	}
	if got := h.reg.Counter("shard.get.hedge_won").Value(); got != 1 {
		t.Errorf("shard.get.hedge_won = %d, want 1", got)
	}
	// A hedge that is launched and loses is not a hedge that won: the
	// primary answers after the hedge threshold but long before the (even
	// slower) replica the hedge went to.
	h.faults[primary].ClearRules()
	h.faults[primary].AddRule(ssp.FaultRule{Mode: ssp.FaultSlow, Delay: 20 * time.Millisecond})
	for i, f := range h.faults {
		if i != primary {
			f.AddRule(ssp.FaultRule{Mode: ssp.FaultSlow, Delay: 300 * time.Millisecond})
		}
	}
	hedged := h.reg.Counter("shard.get.hedged").Value()
	if v, err := h.store.Get(wire.NSData, key); err != nil || string(v) != "fresh" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if h.reg.Counter("shard.get.hedged").Value() == hedged {
		t.Error("no hedge was launched past a 20 ms primary")
	}
	if got := h.reg.Counter("shard.get.hedge_won").Value(); got != 1 {
		t.Errorf("shard.get.hedge_won = %d after a read the primary won, want still 1", got)
	}
	// Hedging disabled: the same read waits out the slow primary.
	h2 := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2, HedgeDelay: -1})
	if err := h2.store.Put(wire.NSData, key, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	p2 := h2.store.Ring().Owner(wire.NSData, key)
	h2.faults[p2].AddRule(ssp.FaultRule{Mode: ssp.FaultSlow, Delay: 50 * time.Millisecond})
	start = time.Now()
	if _, err := h2.store.Get(wire.NSData, key); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 50*time.Millisecond {
		t.Errorf("HedgeDelay<0 still hedged: read returned in %v", e)
	}
}

// Read-repair: a primary serving not-found (FaultDrop) loses to its
// replica, and the winning value is pushed back.
func TestReadRepairAfterDrop(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	const key = "repair/me"
	if err := h.store.Put(wire.NSData, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Physically remove the copy from the primary, then also have it
	// claim not-found, so the read must be served by the secondary.
	primary := h.store.Ring().Owner(wire.NSData, key)
	if err := h.mems[primary].Delete(wire.NSData, key); err != nil {
		t.Fatal(err)
	}
	h.faults[primary].AddRule(ssp.FaultRule{Mode: ssp.FaultDrop, NS: wire.NSData, KeyPart: key})

	v, err := h.store.Get(wire.NSData, key)
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get past dropped primary = %q, %v", v, err)
	}
	h.store.waitIdle()
	if h.reg.Counter("shard.repair").Value() == 0 {
		t.Fatal("read-repair did not run")
	}
	// The repair physically restored the primary's copy (FaultDrop only
	// lies on reads; writes pass through).
	if _, err := h.mems[primary].Get(wire.NSData, key); err != nil {
		t.Fatalf("primary copy not repaired: %v", err)
	}
}

func TestStoreListMergesAndSurvivesShardLoss(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	want := map[string]bool{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("doc/%d", i)
		want[key] = true
		if err := h.store.Put(wire.NSData, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		t.Helper()
		items, err := h.store.List(wire.NSData, "doc/")
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(want) {
			t.Fatalf("List returned %d items, want %d", len(items), len(want))
		}
		for _, kv := range items {
			if !want[kv.Key] || string(kv.Val) != kv.Key {
				t.Fatalf("bad listing entry %q=%q", kv.Key, kv.Val)
			}
		}
	}
	check()
	// One whole backend dropping every key: replication covers it.
	h.faults[1].AddRule(ssp.FaultRule{Mode: ssp.FaultDrop})
	check()
}

func TestStoreBatchOps(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	var batch []wire.KV
	for i := 0; i < 20; i++ {
		batch = append(batch, wire.KV{NS: wire.NSData, Key: fmt.Sprintf("b/%d", i), Val: []byte{byte(i)}})
	}
	if err := h.store.BatchPut(batch); err != nil {
		t.Fatal(err)
	}
	for _, kv := range batch {
		if c := h.copies(kv.NS, kv.Key); c != 2 {
			t.Fatalf("%q on %d backends after BatchPut, want 2", kv.Key, c)
		}
	}
	req := []wire.KV{{NS: wire.NSData, Key: "b/3"}, {NS: wire.NSData, Key: "missing"}, {NS: wire.NSData, Key: "b/7"}}
	got, err := h.store.BatchGet(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "b/3" || got[1].Key != "b/7" {
		t.Fatalf("BatchGet = %+v", got)
	}
	if got[0].Val[0] != 3 || got[1].Val[0] != 7 {
		t.Fatalf("BatchGet values wrong: %+v", got)
	}
	// Deletes replicate too.
	if err := h.store.BatchPut([]wire.KV{{NS: wire.NSData, Key: "b/3", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.store.Get(wire.NSData, "b/3"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("deleted key Get = %v, want not-found", err)
	}
	if c := h.copies(wire.NSData, "b/3"); c != 0 {
		t.Fatalf("deleted key still on %d backends", c)
	}
}

// BatchPut under a single lost shard: every item whose quorum survives
// must land; with W=1 all of them do.
func TestBatchPutWithShardDown(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 1})
	h.faults[2].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	var batch []wire.KV
	for i := 0; i < 30; i++ {
		batch = append(batch, wire.KV{NS: wire.NSData, Key: fmt.Sprintf("q/%d", i), Val: []byte("x")})
	}
	if err := h.store.BatchPut(batch); err != nil {
		t.Fatalf("BatchPut with one shard down (W=1): %v", err)
	}
	for _, kv := range batch {
		if v, err := h.store.Get(kv.NS, kv.Key); err != nil || string(v) != "x" {
			t.Fatalf("Get(%q) = %q, %v", kv.Key, v, err)
		}
	}
	// W=2 with a whole backend refusing writes: keys whose replica pair
	// includes the dead shard cannot reach quorum.
	h2 := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	h2.faults[2].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	err := h2.store.BatchPut(batch)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("BatchPut W=2 with a dead shard = %v, want ErrQuorum", err)
	}
}

func TestStoreStatsSumsReplicas(t *testing.T) {
	h := newHarness(t, 3, Options{Replicas: 2, WriteQuorum: 2})
	for i := 0; i < 10; i++ {
		if err := h.store.Put(wire.NSData, fmt.Sprintf("s/%d", i), []byte("xy")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := h.store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 20 {
		t.Fatalf("Stats.Objects = %d, want 20 (10 keys × R=2)", st.Objects)
	}
	if st.PerNS[wire.NSData] != 20 {
		t.Fatalf("Stats.PerNS[data] = %d, want 20", st.PerNS[wire.NSData])
	}
}

func TestOptionsValidation(t *testing.T) {
	mk := func(n int) []Backend {
		out := make([]Backend, n)
		for i := range out {
			out[i] = Backend{ID: fmt.Sprintf("s%d", i), Store: ssp.NewMemStore()}
		}
		return out
	}
	if _, err := New(mk(3), Options{Replicas: 2, WriteQuorum: 3}); err == nil {
		t.Error("W > R accepted")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := New([]Backend{{ID: "a"}}, Options{}); err == nil {
		t.Error("nil backend store accepted")
	}
	// R clamps to the backend count; W defaults to majority.
	s, err := New(mk(2), Options{Replicas: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.opt.Replicas != 2 || s.opt.WriteQuorum != 2 {
		t.Fatalf("R/W defaulted to %d/%d, want 2/2", s.opt.Replicas, s.opt.WriteQuorum)
	}
}
