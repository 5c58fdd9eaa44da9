package shard

import (
	"errors"
	"fmt"
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
	// HedgeDelay is how long a single-key Get waits on one replica before
	// hedging the request to the next (default 2ms; <0 disables hedging
	// so a Get walks replicas strictly on failure).
	HedgeDelay time.Duration
	// Registry, when non-nil, receives shard metrics: shard.put.quorum /
	// shard.put.bg_fail / shard.get.hedged / shard.get.hedge_won /
	// shard.breaker.* counters and the shard.breaker.open_now gauge.
	Registry *obs.Registry
}

// Every backend has a circuit breaker. breakerThreshold consecutive
// failures open it; an open breaker is skipped in read replica walks —
// the hedge to the next replica fires immediately — until
// breakerCooldown elapses and a half-open probe either closes or
// re-opens it. Writes are never skipped, and a read whose healthy
// replicas all miss falls back to the skipped ones, so breakers reorder
// work but never lose it. The values are the ones the chaos-campaign
// ablation measured (docs/RESILIENCE.md).
const (
	breakerThreshold = 3
	breakerCooldown  = 30 * time.Millisecond
)

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
//   - reads skip a backend whose circuit breaker is open, and ask it last.
//
// Reads never write: a replica that missed a write (W < R) keeps missing
// it until the key is written again (docs/SHARDING.md §1).
//
// The ring, the backend map and the breakers are built in New and never
// change, so every read and write looks up its replicas without a lock.
// A Store is safe for concurrent use. Close waits for the replies of
// hedged-read stragglers; it does not close the backends.
type Store struct {
	opt      Options
	ring     *Ring
	backends map[string]ssp.BlobStore
	breakers map[string]*breaker // one circuit per backend ID

	mu       sync.Mutex
	inflight int // straggler reads not yet answered
	idle     *sync.Cond
	closed   bool
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
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	s := &Store{opt: opt, ring: ring, backends: m, breakers: make(map[string]*breaker, len(ids))}
	s.idle = sync.NewCond(&s.mu)
	for _, id := range ids {
		s.breakers[id] = &breaker{}
	}
	return s, nil
}

// Routes implements ssp.Router: the number of coalescing lanes a
// write-behind layer should key its buffers by.
func (s *Store) Routes() int { return len(s.ring.Shards) }

// RouteID implements ssp.Router: the primary shard index for (ns, key).
func (s *Store) RouteID(ns wire.NS, key string) int { return s.ring.Owner(ns, key) }

// replicas returns the IDs of (ns, key)'s replica backends, primary
// first, in a fresh slice.
func (s *Store) replicas(ns wire.NS, key string) []string {
	idx := s.ring.Lookup(ns, key, s.opt.Replicas)
	ids := make([]string, len(idx))
	for i, si := range idx {
		ids[i] = s.ring.Shards[si]
	}
	return ids
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
		// Tear-down raced a new read: run it synchronously, so Close
		// never returns with one still out.
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

// allowBackend asks id's breaker whether a read should be routed there.
func (s *Store) allowBackend(id string) bool {
	ok, tr := s.breakers[id].allow(time.Now(), breakerCooldown)
	if tr == bkProbing {
		s.count("shard.breaker.halfopen")
	}
	return ok
}

// observe feeds one backend's request outcome into its breaker, counting
// state transitions. wire.ErrNotFound is a healthy answer: the backend
// responded, it just lacks the key.
func (s *Store) observe(id string, err error) {
	ok := err == nil || errors.Is(err, wire.ErrNotFound)
	switch s.breakers[id].record(ok, breakerThreshold, time.Now()) {
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

// waitIdle blocks until every spawned read — the replies of hedged-read
// stragglers — has finished.
func (s *Store) waitIdle() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close waits for straggler reads. It does not close the backends (the
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
// first successful value wins. wire.ErrNotFound is returned only when
// every replica misses.
func (s *Store) Get(ns wire.NS, key string) ([]byte, error) {
	return s.hedgedGet(ns, key, s.replicas(ns, key))
}

// hedgedGet races the ordered replica list: each entry is launched when
// its predecessor errors, reports not-found, or exceeds HedgeDelay. The
// winner's value is returned; replicas still out answer into the
// buffered channel and are not waited for.
//
// Replicas whose breaker is open are skipped on the first pass — the
// hedge fires immediately to the next healthy replica — but deferred,
// not dropped: if every healthy replica fails or misses, the walk
// restarts over the skipped ones (fail-open), so a durable key can never
// read as not-found just because its only live holder tripped a breaker.
func (s *Store) hedgedGet(ns wire.NS, key string, ids []string) ([]byte, error) {
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
			st := s.backends[id]
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

	var firstErr error
	outstanding := launched
	for outstanding > 0 {
		select {
		case r := <-results:
			outstanding--
			switch {
			case r.err == nil:
				if hedged && r.id != first {
					s.count("shard.get.hedge_won")
				}
				return r.val, nil
			case errors.Is(r.err, wire.ErrNotFound):
			case firstErr == nil:
				firstErr = r.err
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
	// A replica that failed may hold the key: that is an error, not an
	// absence.
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, wire.ErrNotFound
}

// List implements ssp.BlobStore: the listing fans out to every backend
// and merges by key (first responder in ring order wins a duplicate).
// Up to R-1 backend failures are tolerated — replication guarantees
// every key still appears on a surviving shard.
func (s *Store) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	ids := s.ring.Shards
	type listRes struct {
		items []wire.KV
		err   error
	}
	results := make([]listRes, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		st := s.backends[id]
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
// pass down each key's replica list, so any number of absent keys costs
// at most R-1 further round trips, not two each. Replicas whose breaker
// is open are asked last (fail open), as in Get. A key no replica
// returned is omitted when every replica answered, and fails the call
// when one of them could not be asked. Results preserve input order.
func (s *Store) BatchGet(items []wire.KV) ([]wire.KV, error) {
	if len(items) == 0 {
		return nil, nil
	}
	walks := make([]batchWalk, len(items))
	for i, it := range items {
		w := &walks[i]
		w.order = s.replicas(it.NS, it.Key) // a fresh slice: the walk may append to it
		w.guarded = len(w.order)
	}

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
				res, err := s.backends[id].BatchGet(batch)
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
						w.val, w.found = res[j].Val, true
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
	// order lists the replicas to ask, primary first, then — appended as
	// the walk skips them — the ones whose breaker was open.
	order   []string
	guarded int   // order[:guarded] are asked only if their breaker allows
	pos     int   // next entry of order
	err     error // first failure of a replica's batch
	val     []byte
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
// items expand to their replica sets, group into one BatchPut per
// backend, and every backend batch runs in parallel — this is what makes
// a write-behind flush over a sharded store a per-backend fan-out. The
// call waits for every reply. Each item needs W of its R replica writes
// to succeed; the first under-quorum item fails the call. Replica
// failures a quorum tolerated count in shard.put.bg_fail; those copies
// stay missing (or stale) until the key is written again.
func (s *Store) BatchPut(items []wire.KV) error {
	if len(items) == 0 {
		return nil
	}
	groups := make(map[string][]wire.KV)    // backend id -> its batch
	targets := make([][]string, len(items)) // item i's replicas
	for i, it := range items {
		targets[i] = s.replicas(it.NS, it.Key)
		for _, id := range targets[i] {
			groups[id] = append(groups[id], it)
		}
	}

	errs := make(map[string]error, len(groups))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, batch := range groups {
		st := s.backends[id]
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
		fails := 0
		var firstErr error
		for _, id := range ids {
			if err := errs[id]; err != nil {
				fails++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if acks := len(ids) - fails; acks >= s.opt.WriteQuorum {
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
	total := ssp.Stats{PerNS: make(map[wire.NS]int64)}
	for _, id := range s.ring.Shards {
		st, err := s.backends[id].Stats()
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
