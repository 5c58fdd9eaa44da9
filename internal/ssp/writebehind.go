package ssp

import (
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// maxBufferedBytes flushes the buffer once its values reach this size.
const maxBufferedBytes = 1 << 20

// WriteBehindOptions configures a WriteBehind layer. Zero values take the
// defaults noted on each field.
type WriteBehindOptions struct {
	// MaxItems flushes the buffer once this many writes are pending
	// (default 64).
	MaxItems int
	// MaxDelay bounds how long a buffered write may wait before a flush
	// is kicked, so writes are not deferred indefinitely on an idle
	// client (default 2ms).
	MaxDelay time.Duration
	// Registry, when non-nil, receives write-behind metrics:
	// ssp.wb.flushes / ssp.wb.flushed_items / ssp.wb.flushed_bytes
	// (counters), ssp.wb.buffered (gauge), ssp.wb.flush_ns (flush
	// latency histogram) and ssp.wb.flush_items (flush size histogram;
	// sizes are recorded on the registry's duration scale as 1µs per
	// item).
	Registry *obs.Registry
}

func (o *WriteBehindOptions) defaults() {
	if o.MaxItems == 0 {
		o.MaxItems = 64
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
}

// WriteBehind is a client-side coalescing layer over a BlobStore: Put,
// Delete and BatchPut are buffered and flushed as one BatchPut once a
// size or latency threshold trips, or when a reader needs them, or on an
// explicit Barrier. Repeated writes to one key coalesce in place, so only
// the last value travels.
//
// Coherence: a Get of a buffered key is answered from the buffer; List,
// Stats and any BatchGet touching a buffered key force a flush first, so
// a reader can never observe the store "before" its own writes. Flushes
// preserve per-key order (a single flusher, one batch at a time).
//
// A flush failure is remembered and surfaced on the next operation (and
// from Barrier/Close), in keeping with write-behind semantics: the write
// that "succeeded" earlier reports its error at the next opportunity.
type WriteBehind struct {
	inner BlobStore
	opt   WriteBehindOptions

	mu    sync.Mutex
	cond  *sync.Cond
	buf   []wire.KV
	idx   map[string]int // ns|key -> index in buf
	bytes int64
	// fbuf/fidx mirror the batch currently being flushed: its keys are
	// in neither buf nor (yet) the inner store, and the server may
	// reorder a concurrent direct read ahead of the in-flight BatchPut,
	// so reads must consult it.
	fbuf     []wire.KV
	fidx     map[string]int
	err      error // sticky deferred flush error
	flushing bool
	closed   bool
	timer    *time.Timer
}

var _ BlobStore = (*WriteBehind)(nil)

// Flusher is the barrier interface of the stores that acknowledge a
// write before the SSP has applied it: write-behind, which buffers
// writes, and the pipelined Client, whose SendBatch returns before the
// reply. Callers that need read-after-write visibility across clients
// (or a durability point) type-assert against it.
type Flusher interface {
	Barrier() error
}

// Router is implemented by stores that spread keys across multiple
// independent backends (the sharded multi-SSP store). Layers above —
// write-behind in particular — use it to split one logical batch into
// per-backend lanes, so each backend's pipelined connection carries only
// its own traffic instead of every flush serializing through one frame.
// RouteID must be stable for a given (ns, key) between ring changes and
// return a value in [0, Routes()).
type Router interface {
	Routes() int
	RouteID(ns wire.NS, key string) int
}

// NewWriteBehind wraps inner in a write-behind buffer.
func NewWriteBehind(inner BlobStore, opt WriteBehindOptions) *WriteBehind {
	opt.defaults()
	w := &WriteBehind{inner: inner, opt: opt, idx: make(map[string]int)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func bufKey(ns wire.NS, key string) string {
	return string(rune(ns)) + "|" + key
}

// add buffers one write under w.mu and returns true if a threshold
// tripped.
func (w *WriteBehind) add(kv wire.KV) bool {
	k := bufKey(kv.NS, kv.Key)
	if i, ok := w.idx[k]; ok {
		w.bytes += int64(len(kv.Val)) - int64(len(w.buf[i].Val))
		w.buf[i] = kv
	} else {
		w.idx[k] = len(w.buf)
		w.buf = append(w.buf, kv)
		w.bytes += int64(len(kv.Val))
		if len(w.buf) == 1 && w.opt.MaxDelay > 0 {
			w.armTimer()
		}
	}
	w.opt.Registry.Gauge("ssp.wb.buffered").Set(int64(len(w.buf)))
	return len(w.buf) >= w.opt.MaxItems || w.bytes >= maxBufferedBytes
}

// armTimer schedules a latency-bound flush. Called under w.mu when the
// buffer transitions empty -> non-empty.
func (w *WriteBehind) armTimer() {
	if w.timer != nil {
		w.timer.Reset(w.opt.MaxDelay)
		return
	}
	w.timer = time.AfterFunc(w.opt.MaxDelay, func() {
		w.mu.Lock()
		w.kick()
		w.mu.Unlock()
	})
}

// kick starts the flusher goroutine if there is work and none running.
// Called under w.mu.
func (w *WriteBehind) kick() {
	if w.flushing || len(w.buf) == 0 {
		return
	}
	w.flushing = true
	go w.flushLoop()
}

// flushLoop drains the buffer, one BatchPut at a time, preserving write
// order. Runs until the buffer is empty, then exits.
func (w *WriteBehind) flushLoop() {
	w.mu.Lock()
	for len(w.buf) > 0 {
		batch := w.buf
		bytes := w.bytes
		w.fbuf, w.fidx = w.buf, w.idx
		w.buf = nil
		w.idx = make(map[string]int)
		w.bytes = 0
		w.opt.Registry.Gauge("ssp.wb.buffered").Set(0)
		w.mu.Unlock()

		start := time.Now()
		err := w.flushBatch(batch)
		w.opt.Registry.Histogram("ssp.wb.flush_ns").Observe(time.Since(start))
		w.opt.Registry.Histogram("ssp.wb.flush_items").Observe(time.Duration(len(batch)) * time.Microsecond)
		w.opt.Registry.Counter("ssp.wb.flushes").Inc()
		w.opt.Registry.Counter("ssp.wb.flushed_items").Add(int64(len(batch)))
		w.opt.Registry.Counter("ssp.wb.flushed_bytes").Add(bytes)

		w.mu.Lock()
		w.fbuf, w.fidx = nil, nil
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	w.flushing = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// flushBatch lands one drained buffer in the inner store. When the inner
// store routes keys across several backends (it implements Router), the
// batch is keyed into one lane per backend and the lanes are written
// concurrently — each backend's connection sees only its own keys.
// Cross-lane ordering is unconstrained, which is safe because lanes are
// disjoint key sets; within a lane, batch order is preserved. The first
// lane error wins (they all become the same sticky deferred error).
func (w *WriteBehind) flushBatch(batch []wire.KV) error {
	rt, ok := w.inner.(Router)
	if !ok || rt.Routes() <= 1 {
		return w.inner.BatchPut(batch)
	}
	lanes := make(map[int][]wire.KV)
	for _, kv := range batch {
		id := rt.RouteID(kv.NS, kv.Key)
		lanes[id] = append(lanes[id], kv)
	}
	w.opt.Registry.Counter("ssp.wb.lane_flushes").Add(int64(len(lanes)))
	if len(lanes) == 1 {
		return w.inner.BatchPut(batch)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, lane := range lanes {
		wg.Add(1)
		go func(items []wire.KV) {
			defer wg.Done()
			if err := w.inner.BatchPut(items); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return firstErr
}

// Barrier flushes all buffered writes and waits for them to land,
// returning (and clearing) any deferred flush error.
func (w *WriteBehind) Barrier() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.barrierLocked()
}

func (w *WriteBehind) barrierLocked() error {
	for w.flushing || len(w.buf) > 0 {
		w.kick()
		w.cond.Wait()
	}
	return w.takeErr()
}

// takeErr returns (and clears) the deferred flush error, if any. Called
// under w.mu.
func (w *WriteBehind) takeErr() error {
	err := w.err
	w.err = nil
	return err
}

// Close flushes outstanding writes. It does not close the inner store.
func (w *WriteBehind) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	err := w.barrierLocked()
	w.closed = true
	if w.timer != nil {
		w.timer.Stop()
	}
	return err
}

// Get implements BlobStore. Buffered keys are answered from the buffer
// (a buffered delete reads as not-found); everything else goes straight
// through without forcing a flush.
func (w *WriteBehind) Get(ns wire.NS, key string) ([]byte, error) {
	w.mu.Lock()
	if err := w.takeErr(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	k := bufKey(ns, key)
	if i, ok := w.idx[k]; ok {
		kv := w.buf[i]
		w.mu.Unlock()
		if kv.Delete {
			return nil, wire.ErrNotFound
		}
		return append([]byte(nil), kv.Val...), nil
	}
	if i, ok := w.fidx[k]; ok {
		// The key is in the batch being flushed right now; serve the
		// value being written rather than racing the in-flight BatchPut.
		kv := w.fbuf[i]
		w.mu.Unlock()
		if kv.Delete {
			return nil, wire.ErrNotFound
		}
		return append([]byte(nil), kv.Val...), nil
	}
	w.mu.Unlock()
	return w.inner.Get(ns, key)
}

// Put implements BlobStore: the write is buffered and reported
// successful; a later flush failure surfaces on a subsequent operation.
func (w *WriteBehind) Put(ns wire.NS, key string, val []byte) error {
	return w.BatchPut([]wire.KV{{NS: ns, Key: key, Val: val}})
}

// Delete implements BlobStore by buffering a tombstone.
func (w *WriteBehind) Delete(ns wire.NS, key string) error {
	return w.BatchPut([]wire.KV{{NS: ns, Key: key, Delete: true}})
}

// BatchPut implements BlobStore: items are coalesced into the buffer.
func (w *WriteBehind) BatchPut(items []wire.KV) error {
	w.mu.Lock()
	if err := w.takeErr(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrShutdown
	}
	full := false
	for _, kv := range items {
		if w.add(kv) {
			full = true
		}
	}
	if full {
		w.kick()
	}
	w.mu.Unlock()
	return nil
}

// List implements BlobStore, flushing first if any buffered write could
// change the listing.
func (w *WriteBehind) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	w.mu.Lock()
	overlap := false
	for _, buf := range [][]wire.KV{w.buf, w.fbuf} {
		for _, kv := range buf {
			if kv.NS == ns && len(kv.Key) >= len(prefix) && kv.Key[:len(prefix)] == prefix {
				overlap = true
				break
			}
		}
	}
	var err error
	if overlap {
		err = w.barrierLocked()
	} else {
		err = w.takeErr()
	}
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return w.inner.List(ns, prefix)
}

// BatchGet implements BlobStore, flushing first if any requested key is
// buffered.
func (w *WriteBehind) BatchGet(items []wire.KV) ([]wire.KV, error) {
	w.mu.Lock()
	overlap := false
	for _, it := range items {
		k := bufKey(it.NS, it.Key)
		if _, ok := w.idx[k]; ok {
			overlap = true
			break
		}
		if _, ok := w.fidx[k]; ok {
			overlap = true
			break
		}
	}
	var err error
	if overlap {
		err = w.barrierLocked()
	} else {
		err = w.takeErr()
	}
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return w.inner.BatchGet(items)
}

// Stats implements BlobStore behind a full barrier, so counts reflect
// buffered writes.
func (w *WriteBehind) Stats() (Stats, error) {
	if err := w.Barrier(); err != nil {
		return Stats{}, err
	}
	return w.inner.Stats()
}
