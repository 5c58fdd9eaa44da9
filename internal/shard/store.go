package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Backend pairs a stable shard ID with the store reached through it —
// usually an ssp.Client over that shard's own pipelined connection, or a
// bare MemStore for the out-of-band bootstrap path.
type Backend struct {
	ID    string
	Store ssp.BlobStore
}

// Options configures a Store. Zero values take the defaults noted.
type Options struct {
	// Replicas is R: every blob lives on this many distinct shards
	// (default 2, clamped to the shard count).
	Replicas int
	// WriteQuorum is W: a write waits for all R replica replies and
	// succeeds when at least W of them succeeded (default majority,
	// (R/2)+1). Must be 1 <= W <= R.
	WriteQuorum int
	// HedgeDelay is how long a read waits on one replica before hedging
	// the request to the next (default 2ms; <0 disables hedging so a
	// read walks replicas strictly on failure).
	HedgeDelay time.Duration
	// Vnodes per shard on the ring (default DefaultVnodes).
	Vnodes int
	// BreakerThreshold opens a backend's circuit breaker after this many
	// consecutive failures (default 5; <0 disables breakers). An open
	// breaker is skipped in read replica walks — the hedge to the next
	// replica fires immediately — until BreakerCooldown (default 25ms)
	// elapses and a half-open probe either closes or re-opens it. Writes
	// are never skipped, and a read whose healthy replicas all miss falls
	// back to the skipped ones, so breakers reorder work but never lose
	// it.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BgLimit bounds the concurrent best-effort background goroutines
	// (read repairs and hedge stragglers; default 64, <0 unbounded).
	// Tasks beyond the limit are shed and counted in shard.put.bg_shed;
	// writes never run in the background, so none is ever shed.
	BgLimit int
	// Registry, when non-nil, receives shard metrics: shard.put.quorum /
	// shard.put.bg_fail / shard.put.bg_shed / shard.get.hedged /
	// shard.get.hedge_won / shard.get.fallback / shard.repair /
	// shard.repair_fail / shard.breaker.* counters, the
	// shard.breaker.open_now gauge, and the shard.rebalance.moved
	// counter.
	Registry *obs.Registry
}

func (o *Options) defaults(n int) error {
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.Replicas > n {
		o.Replicas = n
	}
	if o.Replicas < 1 {
		return fmt.Errorf("shard: replicas %d < 1", o.Replicas)
	}
	if o.WriteQuorum == 0 {
		o.WriteQuorum = o.Replicas/2 + 1
	}
	if o.WriteQuorum < 1 || o.WriteQuorum > o.Replicas {
		return fmt.Errorf("shard: write quorum %d outside 1..%d", o.WriteQuorum, o.Replicas)
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 2 * time.Millisecond
	}
	if o.Vnodes <= 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 25 * time.Millisecond
	}
	if o.BgLimit == 0 {
		o.BgLimit = 64
	}
	return nil
}

// ErrQuorum is wrapped by the error of a write that fewer than W
// replicas acknowledged. Only that call reports it; nothing is deferred.
var ErrQuorum = errors.New("shard: write quorum not reached")

// Store implements ssp.BlobStore over N backend SSPs. See the package
// comment for the trust argument; mechanically:
//
//   - every (ns, key) maps to R successor shards on a consistent-hash
//     ring of virtual nodes;
//   - BatchPut is the only write path (Put and Delete are one-item
//     batches): it waits for every replica's reply and succeeds when each
//     item has W of its R replica writes; a quorum loss is returned by the
//     call that lost it;
//   - Get tries the primary, hedges to the next replica after
//     HedgeDelay, and falls over immediately on error or not-found;
//   - BatchGet sends one batch per primary in parallel and walks the keys
//     a replica did not return down their replica lists pass by pass, one
//     parallel batch per backend each pass (batches are not hedged);
//   - a read served by a secondary (or one observing a missing replica)
//     pushes the winning value back to the replicas that missed it
//     (read-repair), asynchronously;
//   - Rebalance installs a new ring live: ownership-changed keys are
//     streamed to their new shards while reads fall back to the old ring
//     and writes double-route, then the old ring is dropped.
//
// A Store is safe for concurrent use. Close waits for background
// repairs; it does not close the backends.
type Store struct {
	opt Options

	mu       sync.Mutex
	ring     *Ring
	old      *Ring // non-nil while a rebalance streams; reads fall back to it
	backends map[string]ssp.BlobStore
	// dirty marks keys written since the current rebalance swapped rings
	// (ns|key). The streamer skips them: the writer already placed the
	// newer value on every new-ring replica, so streaming the listed
	// (older) copy would be a lost update. Nil outside a rebalance.
	dirty    map[string]bool
	inflight int // background reads and repairs not yet done
	idle     *sync.Cond
	closed   bool

	// streamMu fences writes against the rebalance streamer: writers
	// hold it shared for the full duration of their backend I/O; the
	// ring swap and each streamed chunk take it exclusively. A write
	// therefore lands either entirely before a chunk (its key is dirty
	// or already listed) or entirely after (the newer value overwrites
	// the streamed copy) — never interleaved with it.
	streamMu sync.RWMutex

	// breakers holds one circuit per backend ID, created lazily (shards
	// added by a rebalance get theirs on first use); nil when disabled.
	brmu     sync.Mutex
	breakers map[string]*breaker

	// bgSem bounds best-effort background goroutines (see Options.BgLimit);
	// nil means unbounded.
	bgSem chan struct{}
}

var _ ssp.BlobStore = (*Store)(nil)
var _ ssp.Router = (*Store)(nil)

// New builds a Store over backends. IDs must be unique and non-empty.
func New(backends []Backend, opt Options) (*Store, error) {
	if err := opt.defaults(len(backends)); err != nil {
		return nil, err
	}
	ids := make([]string, len(backends))
	m := make(map[string]ssp.BlobStore, len(backends))
	for i, b := range backends {
		if b.Store == nil {
			return nil, fmt.Errorf("shard: backend %q has nil store", b.ID)
		}
		ids[i] = b.ID
		m[b.ID] = b.Store
	}
	ring, err := NewRing(1, ids, opt.Vnodes)
	if err != nil {
		return nil, err
	}
	s := &Store{opt: opt, ring: ring, backends: m}
	s.idle = sync.NewCond(&s.mu)
	if opt.BreakerThreshold > 0 {
		s.breakers = make(map[string]*breaker, len(backends))
	}
	if opt.BgLimit > 0 {
		s.bgSem = make(chan struct{}, opt.BgLimit)
	}
	return s, nil
}

// Ring returns the current ring descriptor.
func (s *Store) Ring() *Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

// Routes implements ssp.Router: the number of coalescing lanes a
// write-behind layer should key its buffers by.
func (s *Store) Routes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring.Shards)
}

// RouteID implements ssp.Router: the primary shard index for (ns, key).
func (s *Store) RouteID(ns wire.NS, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Owner(ns, key)
}

// replicaSet resolves (ns, key) to its replica backends under the
// current ring, plus any old-ring fallback replicas during a rebalance.
type replicaSet struct {
	ids    []string // new-ring replicas, primary first
	olds   []string // old-ring replicas not already in ids (rebalance only)
	stores map[string]ssp.BlobStore
}

func (s *Store) replicas(ns wire.NS, key string) replicaSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicasLocked(ns, key)
}

func dirtyKey(ns wire.NS, key string) string { return string(rune(ns)) + "|" + key }

func (s *Store) replicasLocked(ns wire.NS, key string) replicaSet {
	rs := replicaSet{stores: s.backends}
	for _, si := range s.ring.Lookup(ns, key, s.opt.Replicas) {
		rs.ids = append(rs.ids, s.ring.Shards[si])
	}
	if s.old != nil {
		in := make(map[string]bool, len(rs.ids))
		for _, id := range rs.ids {
			in[id] = true
		}
		for _, si := range s.old.Lookup(ns, key, s.opt.Replicas) {
			if id := s.old.Shards[si]; !in[id] && s.backends[id] != nil {
				rs.olds = append(rs.olds, id)
			}
		}
	}
	return rs
}

// counter is a nil-safe metric increment.
func (s *Store) count(name string) {
	if s.opt.Registry != nil {
		s.opt.Registry.Counter(name).Inc()
	}
}

// spawn runs f on a tracked goroutine; waitIdle waits for every spawned
// task to finish.
func (s *Store) spawn(f func()) {
	s.mu.Lock()
	if s.closed {
		// Tear-down raced a new background task: run it synchronously so
		// the work still lands.
		s.mu.Unlock()
		f()
		return
	}
	s.inflight++
	s.mu.Unlock()
	go func() {
		defer s.taskDone()
		f()
	}()
}

func (s *Store) taskDone() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// bg runs f like spawn when a background slot is free; otherwise the task
// is shed (dropped) and counted in shard.put.bg_shed. Only best-effort
// work may come through here — straggler listeners and read repairs —
// whose loss costs a repairable replica copy or a metric, never an acked
// write.
func (s *Store) bg(f func()) {
	if s.bgSem == nil {
		s.spawn(f)
		return
	}
	select {
	case s.bgSem <- struct{}{}:
		s.spawn(func() {
			defer func() { <-s.bgSem }()
			f()
		})
	default:
		s.count("shard.put.bg_shed")
	}
}

// breakerFor returns (lazily creating) id's breaker; nil when disabled.
// The enabled check reads immutable Options, not the map, so it needs no
// lock.
func (s *Store) breakerFor(id string) *breaker {
	if s.opt.BreakerThreshold <= 0 {
		return nil
	}
	s.brmu.Lock()
	defer s.brmu.Unlock()
	b := s.breakers[id]
	if b == nil {
		b = &breaker{}
		s.breakers[id] = b
	}
	return b
}

// allowBackend asks id's breaker whether a read should be routed there.
func (s *Store) allowBackend(id string) bool {
	b := s.breakerFor(id)
	if b == nil {
		return true
	}
	ok, tr := b.allow(time.Now(), s.opt.BreakerCooldown)
	if tr == bkProbing {
		s.count("shard.breaker.halfopen")
	}
	return ok
}

// observe feeds one backend's request outcome into its breaker, counting
// state transitions. wire.ErrNotFound is a healthy answer: the backend
// responded, it just lacks the key.
func (s *Store) observe(id string, err error) {
	b := s.breakerFor(id)
	if b == nil {
		return
	}
	ok := err == nil || errors.Is(err, wire.ErrNotFound)
	switch b.record(ok, s.opt.BreakerThreshold, time.Now()) {
	case bkOpened:
		s.count("shard.breaker.open")
		s.gaugeAdd("shard.breaker.open_now", 1)
	case bkReopened:
		// Same outage, still counted open in the gauge; only the
		// transition counter ticks.
		s.count("shard.breaker.open")
	case bkClosedAgain:
		s.count("shard.breaker.close")
		s.gaugeAdd("shard.breaker.open_now", -1)
	}
}

func (s *Store) gaugeAdd(name string, d int64) {
	if s.opt.Registry != nil {
		s.opt.Registry.Gauge(name).Add(d)
	}
}

// waitIdle blocks until every background task — read repairs and the
// replies of hedged-read stragglers — has finished.
func (s *Store) waitIdle() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close waits for background work. It does not close the backends (the
// caller owns their connections).
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.waitIdle()
	return nil
}

// Put implements ssp.BlobStore as a one-item BatchPut.
func (s *Store) Put(ns wire.NS, key string, val []byte) error {
	return s.BatchPut([]wire.KV{{NS: ns, Key: key, Val: val}})
}

// Delete implements ssp.BlobStore as a one-item BatchPut. Replica
// deletes are quorum-counted like puts; a missing key is success,
// matching the single-store contract.
func (s *Store) Delete(ns wire.NS, key string) error {
	return s.BatchPut([]wire.KV{{NS: ns, Key: key, Delete: true}})
}

// getResult is one replica's answer to a hedged read.
type getResult struct {
	id  string
	val []byte
	err error
}

// Get implements ssp.BlobStore: primary first, hedging to the next
// replica after HedgeDelay (or immediately on error/not-found). The
// first successful value wins; replicas observed missing the value are
// repaired in the background. wire.ErrNotFound is returned only when
// every replica (and, mid-rebalance, every old-ring replica) misses.
func (s *Store) Get(ns wire.NS, key string) ([]byte, error) {
	// Reads share the rebalance fence too — not for atomicity (reads
	// don't mutate), but so the swap's wait-for-idle converges: every
	// spawn chain is rooted in a streamMu reader, so once the swap holds
	// the lock exclusively no new background task can appear.
	s.streamMu.RLock()
	defer s.streamMu.RUnlock()
	rs := s.replicas(ns, key)
	val, err := s.hedgedGet(ns, key, rs.ids, rs.stores, true)
	if err == nil {
		return val, nil
	}
	if len(rs.olds) > 0 && errors.Is(err, wire.ErrNotFound) {
		// Mid-rebalance: the key may not have been streamed to its new
		// shards yet. Serve from the old owners and repair the new ones.
		val, oldErr := s.hedgedGet(ns, key, rs.olds, rs.stores, false)
		if oldErr == nil {
			s.count("shard.get.fallback")
			s.repair(ns, key, val, rs.ids, rs.stores)
			return val, nil
		}
	}
	return nil, err
}

// hedgedGet races the ordered replica list: each entry is launched when
// its predecessor errors, reports not-found, or exceeds HedgeDelay. The
// winner's value is returned; with repairMissing set, replicas that
// answered not-found (and any not-yet-answered earlier replicas, once
// they resolve to not-found) are repaired with the winning value.
//
// Replicas whose breaker is open are skipped on the first pass — the
// hedge fires immediately to the next healthy replica — but deferred,
// not dropped: if every healthy replica fails or misses, the walk
// restarts over the skipped ones (fail-open), so a durable key can never
// read as not-found just because its only live holder tripped a breaker.
func (s *Store) hedgedGet(ns wire.NS, key string, ids []string, stores map[string]ssp.BlobStore, repairMissing bool) ([]byte, error) {
	if len(ids) == 0 {
		return nil, wire.ErrNotFound
	}
	results := make(chan getResult, len(ids))
	pool, idx := ids, 0
	var deferred []string
	lastResort := false
	launched := 0
	first := ""     // the replica launched first: the one a hedge races
	hedged := false // the hedge timer fired at least once
	// launch starts the next routable replica, reporting false once every
	// replica (deferred pool included) has been launched.
	launch := func() bool {
		for {
			if idx >= len(pool) {
				if lastResort || len(deferred) == 0 {
					return false
				}
				pool, idx, lastResort = deferred, 0, true
			}
			id := pool[idx]
			idx++
			if !lastResort && !s.allowBackend(id) {
				s.count("shard.breaker.skip")
				deferred = append(deferred, id)
				continue
			}
			st := stores[id]
			if launched == 0 {
				first = id
			}
			launched++
			s.spawn(func() {
				v, err := st.Get(ns, key)
				s.observe(id, err)
				results <- getResult{id: id, val: v, err: err}
			})
			return true
		}
	}
	// The first launch always succeeds: a first pass that skips every
	// replica flips to the deferred pool inside launch() and fails open.
	launch()

	var timer *time.Timer
	var hedgeC <-chan time.Time
	armHedge := func() {
		if s.opt.HedgeDelay < 0 || launched >= len(ids) {
			hedgeC = nil
			return
		}
		if timer == nil {
			timer = time.NewTimer(s.opt.HedgeDelay)
		} else {
			timer.Reset(s.opt.HedgeDelay)
		}
		hedgeC = timer.C
	}
	armHedge()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	missing := make([]string, 0, len(ids))
	var firstErr error
	outstanding := launched
	for outstanding > 0 {
		select {
		case r := <-results:
			outstanding--
			switch {
			case r.err == nil:
				if repairMissing {
					s.finishRepairs(ns, key, r.val, missing, results, outstanding, stores)
				} else {
					s.drainGets(results, outstanding)
				}
				if hedged && r.id != first {
					s.count("shard.get.hedge_won")
				}
				return r.val, nil
			case errors.Is(r.err, wire.ErrNotFound):
				missing = append(missing, r.id)
			default:
				if firstErr == nil {
					firstErr = r.err
				}
			}
			if launch() {
				outstanding++
				armHedge()
			}
		case <-hedgeC:
			hedged = true
			s.count("shard.get.hedged")
			if launch() {
				outstanding++
			}
			armHedge()
		}
	}
	if firstErr != nil && len(missing) < len(ids) {
		return nil, firstErr
	}
	return nil, wire.ErrNotFound
}

// finishRepairs repairs the replicas known to miss the winning value and
// keeps listening (in the background) for outstanding replicas, so a
// slow replica that eventually answers not-found is repaired too.
func (s *Store) finishRepairs(ns wire.NS, key string, val []byte, missing []string, results chan getResult, outstanding int, stores map[string]ssp.BlobStore) {
	s.repair(ns, key, val, missing, stores)
	if outstanding == 0 {
		return
	}
	s.bg(func() {
		for i := 0; i < outstanding; i++ {
			r := <-results
			if errors.Is(r.err, wire.ErrNotFound) {
				s.repair(ns, key, val, []string{r.id}, stores)
			}
		}
	})
}

// drainGets consumes straggler replica answers nobody will read.
func (s *Store) drainGets(results chan getResult, outstanding int) {
	if outstanding == 0 {
		return
	}
	s.bg(func() {
		for i := 0; i < outstanding; i++ {
			<-results
		}
	})
}

// repair pushes the winning value of a read back to replicas that missed
// it, in the background. Failures are counted, not surfaced: the repair
// is purely an availability optimization, and the value remains readable
// from its other replicas either way.
func (s *Store) repair(ns wire.NS, key string, val []byte, ids []string, stores map[string]ssp.BlobStore) {
	for _, id := range ids {
		id, st := id, stores[id]
		if st == nil {
			continue
		}
		s.bg(func() {
			err := st.Put(ns, key, val)
			s.observe(id, err)
			if err != nil {
				s.count("shard.repair_fail")
			} else {
				s.count("shard.repair")
			}
		})
	}
}

// List implements ssp.BlobStore: the listing fans out to every backend
// and merges by key (first responder in ring order wins a duplicate).
// Up to R-1 backend failures are tolerated — replication guarantees
// every key still appears on a surviving shard.
func (s *Store) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	s.mu.Lock()
	ids := append([]string(nil), s.ring.Shards...)
	if s.old != nil {
		in := make(map[string]bool, len(ids))
		for _, id := range ids {
			in[id] = true
		}
		for _, id := range s.old.Shards {
			if !in[id] && s.backends[id] != nil {
				ids = append(ids, id)
			}
		}
	}
	stores := s.backends
	s.mu.Unlock()

	type listRes struct {
		items []wire.KV
		err   error
	}
	results := make([]listRes, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		st := stores[id]
		go func(i int, id string) {
			defer wg.Done()
			items, err := st.List(ns, prefix)
			s.observe(id, err)
			results[i] = listRes{items: items, err: err}
		}(i, id)
	}
	wg.Wait()

	failures := 0
	var firstErr error
	merged := make(map[string][]byte)
	for _, r := range results {
		if r.err != nil {
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for _, kv := range r.items {
			if _, ok := merged[kv.Key]; !ok {
				merged[kv.Key] = kv.Val
			}
		}
	}
	if failures >= s.opt.Replicas {
		return nil, fmt.Errorf("shard: list: %d/%d backends failed: %w", failures, len(ids), firstErr)
	}
	out := make([]wire.KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, wire.KV{NS: ns, Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// BatchGet implements ssp.BlobStore: items group into one BatchGet per
// primary shard, issued in parallel. Keys a primary did not return — it
// lacks them, or its whole batch failed — are regrouped by their next
// replica and asked again, one parallel BatchGet per backend, pass by
// pass down each key's replica list (old-ring owners last, mid-rebalance),
// so any number of absent keys costs at most R-1 further round trips, not
// two each. Replicas whose breaker is open are asked last (fail open), as
// in Get; a replica that answered without a value another one returned is
// repaired in the background. A key no replica returned is omitted when
// every replica answered, and fails the call when one of them could not
// be asked. Results preserve input order.
func (s *Store) BatchGet(items []wire.KV) ([]wire.KV, error) {
	if len(items) == 0 {
		return nil, nil
	}
	// The same fence as Get: repairs spawn background work.
	s.streamMu.RLock()
	defer s.streamMu.RUnlock()

	s.mu.Lock()
	walks := make([]batchWalk, len(items))
	for i, it := range items {
		rs := s.replicasLocked(it.NS, it.Key) // fresh slices: the walk may append to them
		w := &walks[i]
		w.order = append(rs.ids, rs.olds...)
		w.current, w.guarded = len(rs.ids), len(w.order)
	}
	stores := s.backends
	s.mu.Unlock()

	// One breaker decision per backend per call: allowBackend may hand out
	// a half-open probe, which must then really be sent.
	allowed := make(map[string]bool)
	allow := func(id string) bool {
		ok, seen := allowed[id]
		if !seen {
			if ok = s.allowBackend(id); !ok {
				s.count("shard.breaker.skip")
			}
			allowed[id] = ok
		}
		return ok
	}

	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		groups := make(map[string][]int) // backend id -> indices into items
		for _, i := range pending {
			if id, ok := walks[i].next(allow); ok {
				groups[id] = append(groups[id], i)
			}
		}
		var wg sync.WaitGroup
		for id, idxs := range groups {
			wg.Add(1)
			// Each goroutine touches only its own group's walks.
			go func(id string, idxs []int) {
				defer wg.Done()
				batch := make([]wire.KV, len(idxs))
				for j, i := range idxs {
					batch[j] = wire.KV{NS: items[i].NS, Key: items[i].Key}
				}
				res, err := stores[id].BatchGet(batch)
				s.observe(id, err)
				got := make(map[nsKey]int, len(res))
				for j, kv := range res {
					got[nsKey{kv.NS, kv.Key}] = j
				}
				for _, i := range idxs {
					w := &walks[i]
					switch j, hit := got[nsKey{items[i].NS, items[i].Key}]; {
					case err != nil:
						if w.err == nil {
							w.err = err
						}
					case hit:
						w.val, w.from, w.found = res[j].Val, id, true
					default:
						w.missed = append(w.missed, id)
					}
				}
			}(id, idxs)
		}
		wg.Wait()
		// Still pending: asked this pass, and not answered with a value.
		rest := pending[:0]
		for _, idxs := range groups {
			for _, i := range idxs {
				if !walks[i].found {
					rest = append(rest, i)
				}
			}
		}
		pending = rest
	}

	out := make([]wire.KV, 0, len(items))
	for i, it := range items {
		w := &walks[i]
		switch {
		case w.found:
			ring := w.order[:w.current]
			if !slices.Contains(ring, w.from) {
				s.count("shard.get.fallback")
			}
			// Old-ring owners are on their way out: only current-ring
			// replicas are repaired.
			var stale []string
			for _, id := range w.missed {
				if slices.Contains(ring, id) {
					stale = append(stale, id)
				}
			}
			s.repair(it.NS, it.Key, w.val, stale, stores)
			out = append(out, wire.KV{NS: it.NS, Key: it.Key, Val: w.val})
		case w.err != nil:
			return nil, w.err
		}
	}
	return out, nil
}

// nsKey names a blob in a backend's reply.
type nsKey struct {
	ns  wire.NS
	key string
}

// batchWalk is one BatchGet item's progress down its replica list.
type batchWalk struct {
	// order lists the replicas to ask: the current ring's (the first
	// current entries, primary first), then any old-ring owners, then —
	// appended as the walk skips them — the ones whose breaker was open.
	order   []string
	current int
	guarded int      // order[:guarded] are asked only if their breaker allows
	pos     int      // next entry of order
	missed  []string // replicas that answered without the key
	err     error    // first failure of a replica's batch
	val     []byte
	from    string
	found   bool
}

// next returns the replica to ask in the coming pass, or false when the
// walk is exhausted. A replica whose breaker is open is put back at the
// end of the walk, where it is asked unconditionally (fail open).
func (w *batchWalk) next(allow func(string) bool) (string, bool) {
	for w.pos < len(w.order) {
		id := w.order[w.pos]
		w.pos++
		if w.pos > w.guarded || allow(id) {
			return id, true
		}
		w.order = append(w.order, id)
	}
	return "", false
}

// BatchPut implements ssp.BlobStore and is the Store's only write path:
// items expand to their replica sets (plus, mid-rebalance, their old-ring
// owners, written but not counted toward quorum), group into one
// BatchPut per backend, and every backend batch runs in parallel — this
// is what makes a write-behind flush over a sharded store a per-backend
// fan-out. The call waits for every reply. Each item needs W of its R
// replica writes to succeed; the first under-quorum item fails the call.
// Replica failures a quorum tolerated count in shard.put.bg_fail and are
// left to read repair.
func (s *Store) BatchPut(items []wire.KV) error {
	if len(items) == 0 {
		return nil
	}
	s.streamMu.RLock()
	defer s.streamMu.RUnlock()
	s.mu.Lock()
	groups := make(map[string][]wire.KV) // backend id -> its batch
	stores := s.backends
	// targets[i] lists item i's replicas, then its old-ring owners; only
	// the first counted[i] count toward quorum.
	targets := make([][]string, len(items))
	counted := make([]int, len(items))
	for i, it := range items {
		if s.old != nil {
			s.dirty[dirtyKey(it.NS, it.Key)] = true
		}
		rs := s.replicasLocked(it.NS, it.Key)
		targets[i], counted[i] = append(rs.ids, rs.olds...), len(rs.ids)
		for _, id := range targets[i] {
			groups[id] = append(groups[id], it)
		}
	}
	s.mu.Unlock()

	errs := make(map[string]error, len(groups))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, batch := range groups {
		st := stores[id]
		wg.Add(1)
		go func(id string, batch []wire.KV) {
			defer wg.Done()
			err := st.BatchPut(batch)
			s.observe(id, err)
			mu.Lock()
			errs[id] = err
			mu.Unlock()
		}(id, batch)
	}
	wg.Wait()

	var quorumErr error
	tolerated := 0
	for i, ids := range targets {
		acks, fails := 0, 0
		var firstErr error
		for j, id := range ids {
			switch err := errs[id]; {
			case err != nil:
				fails++
				if firstErr == nil {
					firstErr = err
				}
			case j < counted[i]:
				acks++
			}
		}
		if acks >= s.opt.WriteQuorum {
			tolerated += fails
		} else if quorumErr == nil {
			quorumErr = fmt.Errorf("%w: item %d (%s/%s): %d/%d acks (last error: %w)",
				ErrQuorum, i, items[i].NS, items[i].Key, acks, s.opt.WriteQuorum, firstErr)
		}
	}
	if tolerated > 0 && s.opt.Registry != nil {
		s.opt.Registry.Counter("shard.put.bg_fail").Add(int64(tolerated))
	}
	if quorumErr != nil {
		return quorumErr
	}
	s.count("shard.put.quorum")
	return nil
}

// Stats implements ssp.BlobStore by summing every backend. Replication
// inflates the counts by design: the result reports what the SSPs
// actually store (R copies of every blob), which is what the storage
// overhead experiments measure.
func (s *Store) Stats() (ssp.Stats, error) {
	s.mu.Lock()
	ids := append([]string(nil), s.ring.Shards...)
	stores := s.backends
	s.mu.Unlock()

	total := ssp.Stats{PerNS: make(map[wire.NS]int64)}
	for _, id := range ids {
		st, err := stores[id].Stats()
		if err != nil {
			return ssp.Stats{}, fmt.Errorf("shard %s: %w", id, err)
		}
		total.Objects += st.Objects
		total.Bytes += st.Bytes
		for ns, n := range st.PerNS {
			total.PerNS[ns] += n
		}
	}
	return total, nil
}
