package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// layer names one boundary of the stack, ordered top (client filesystem)
// to bottom (the SSP's backing store). The order is the attribution
// priority of the ledger: at any instant wall time belongs to the
// deepest layer with an open span.
type layer uint8

const (
	layerFS layer = iota
	layerWB
	layerShard
	layerResilience
	layerTransport
	layerStore
	numLayers
)

var layerNames = [numLayers]string{"fs", "wb", "shard", "resilience", "transport", "store"}

// span is one call observed at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
//
// Parent and Trace are exact where the harness knows the caller: an fs
// span is its own trace, and a call a session makes into the top of the
// stack has that session's open fs span as parent. Below that the
// BlobStore API carries no context, so linkSpans fills them in after the
// run only where a unique enclosing span of the same kind exists; they
// stay 0 for write-behind flushes, shard fan-out, hedges and other work
// nobody was synchronously waiting on.
type span struct {
	layer  layer
	op     string
	start  int64
	end    int64
	id     uint64
	parent uint64
	trace  uint64
}

// tracer hands out recorders and span ids; spans stay in memory until the
// run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recorder holds the spans of one seam (or one session's fs calls), so
// concurrent callers only contend with callers of the same seam.
type recorder struct {
	tr    *tracer
	layer layer

	mu    sync.Mutex
	spans []span
}

func (t *tracer) recorder(l layer) *recorder {
	r := &recorder{tr: t, layer: l}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// begin opens a span and returns its index (for end) and id. The clock is
// read last, and first in end, so the bookkeeping stays outside the span.
func (r *recorder) begin(op string, parent uint64) (int, uint64) {
	id := r.tr.nextID.Add(1)
	sp := span{layer: r.layer, op: op, id: id, parent: parent, trace: parent}
	if r.layer == layerFS {
		sp.trace = id
	}
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, sp)
	r.spans[idx].start = int64(time.Since(r.tr.epoch))
	r.mu.Unlock()
	return idx, id
}

func (r *recorder) end(idx int) {
	end := int64(time.Since(r.tr.epoch))
	r.mu.Lock()
	r.spans[idx].end = end
	r.mu.Unlock()
}

// snapshot returns every span recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	recs := append([]*recorder(nil), t.recs...)
	t.mu.Unlock()
	var out []span
	for _, r := range recs {
		r.mu.Lock()
		out = append(out, r.spans...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// ledger is the closed decomposition of a set of wall-clock windows.
type ledger struct {
	Wall    int64            // total length of the windows
	Self    [numLayers]int64 // wall time attributed to each layer
	Busy    [numLayers]int64 // wall time each layer had a span open
	Idle    int64            // wall time with no span open anywhere
	MaxOpen [numLayers]int   // peak concurrently open spans per layer
	// Dur is the summed duration of each layer's spans inside the
	// windows, Barrier calls apart; ReadDur the part spent in read ops.
	Dur, ReadDur [numLayers]int64
	Barrier      [numLayers]int64
}

// scaled returns the ledger with every duration multiplied by f.
func (lg ledger) scaled(f float64) ledger {
	mul := func(ns *int64) { *ns = int64(float64(*ns) * f) }
	mul(&lg.Wall)
	mul(&lg.Idle)
	for l := range lg.Self {
		for _, ns := range []*int64{&lg.Self[l], &lg.Busy[l], &lg.Dur[l], &lg.ReadDur[l], &lg.Barrier[l]} {
			mul(ns)
		}
	}
	return lg
}

// buildLedger sweeps the span timeline inside the given [start,end)
// windows. Every instant of a window goes to exactly one bucket — the
// deepest layer with an open span, or Idle — so sum(Self)+Idle equals
// the windows' length by construction.
func buildLedger(spans []span, windows [][2]int64) ledger {
	type event struct {
		t     int64
		delta int
		layer int // numLayers marks a window edge
	}
	events := make([]event, 0, 2*len(spans)+2*len(windows))
	var lg ledger
	for i := range spans {
		sp := &spans[i]
		if sp.end < sp.start {
			continue // never closed; cannot be attributed
		}
		events = append(events, event{sp.start, +1, int(sp.layer)}, event{sp.end, -1, int(sp.layer)})
		for _, w := range windows {
			if sp.start < w[0] || sp.end > w[1] {
				continue
			}
			switch dur := sp.end - sp.start; {
			case sp.op == "barrier":
				lg.Barrier[sp.layer] += dur
			case readOp(sp.op):
				lg.ReadDur[sp.layer] += dur
				fallthrough
			default:
				lg.Dur[sp.layer] += dur
			}
			break
		}
	}
	for _, w := range windows {
		events = append(events, event{w[0], +1, int(numLayers)}, event{w[1], -1, int(numLayers)})
		lg.Wall += w[1] - w[0]
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta > events[j].delta // opens before closes: zero-length spans stay balanced
	})
	var open [numLayers + 1]int
	prev := int64(0)
	for _, ev := range events {
		if dt := ev.t - prev; dt > 0 && open[numLayers] > 0 {
			deepest := -1
			for l := int(numLayers) - 1; l >= 0; l-- {
				if open[l] > 0 {
					lg.Busy[l] += dt
					if deepest < 0 {
						deepest = l
					}
				}
			}
			if deepest < 0 {
				lg.Idle += dt
			} else {
				lg.Self[deepest] += dt
			}
		}
		prev = ev.t
		open[ev.layer] += ev.delta
		if ev.layer < int(numLayers) && open[ev.layer] > lg.MaxOpen[ev.layer] && open[numLayers] > 0 {
			lg.MaxOpen[ev.layer] = open[ev.layer]
		}
	}
	return lg
}

// linkSpans fills in parent and trace below the top of the stack, after
// the run: a span's parent is the span of the next layer up that encloses
// it and moves data the same way, when there is exactly one.
func linkSpans(spans []span) {
	var present [numLayers]bool
	for i := range spans {
		present[spans[i].layer] = true
	}
	above := func(l layer) int {
		for u := int(l) - 1; u >= 0; u-- {
			if present[u] {
				return u
			}
		}
		return -1
	}
	// spans are ordered by start; open keeps, per layer, the spans that
	// started already and may still be running.
	var open [numLayers][]int
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		sp := &spans[i]
		byID[sp.id] = i
		if sp.parent == 0 && sp.layer != layerFS {
			if u := above(sp.layer); u >= 0 {
				match, n := -1, 0
				live := open[u][:0]
				for _, j := range open[u] {
					c := &spans[j]
					if c.end < sp.start {
						continue
					}
					live = append(live, j)
					if c.end >= sp.end && (layer(u) == layerFS || readOp(c.op) == readOp(sp.op)) {
						match, n = j, n+1
					}
				}
				open[u] = live
				if n == 1 {
					sp.parent = spans[match].id
				}
			}
		}
		if p, ok := byID[sp.parent]; ok && sp.layer != layerFS {
			sp.trace = spans[p].trace
		}
		open[sp.layer] = append(open[sp.layer], i)
	}
}

func readOp(op string) bool { return op == "get" || op == "list" || op == "batchget" }

// storeProbe is a pass-through ssp.BlobStore that records a span and
// boundary counts around every call into the store below it.
type storeProbe struct {
	inner ssp.BlobStore
	rec   *recorder
	// caller, on a probe at the top of the stack, is the id of the fs span
	// its session has open; nil further down.
	caller *atomic.Uint64

	calls  atomic.Int64 // BlobStore and ViewStore calls (not Barrier/Route*)
	items  atomic.Int64 // keys carried by those calls
	bytes  atomic.Int64 // value bytes carried in either direction
	views  atomic.Int64 // reads served through the ViewStore methods
	copies atomic.Int64 // reads served through Get/List/BatchGet
}

func (p *storeProbe) span(op string) int {
	var parent uint64
	if p.caller != nil {
		parent = p.caller.Load()
	}
	idx, _ := p.rec.begin(op, parent)
	return idx
}

func (p *storeProbe) begin(op string, items int, in int) int {
	p.calls.Add(1)
	p.items.Add(int64(items))
	p.bytes.Add(int64(in))
	return p.span(op)
}

func (p *storeProbe) end(idx int, out int) {
	p.rec.end(idx)
	p.bytes.Add(int64(out))
}

func kvBytes(items []wire.KV) int {
	n := 0
	for i := range items {
		n += len(items[i].Val)
	}
	return n
}

func (p *storeProbe) Get(ns wire.NS, key string) ([]byte, error) {
	p.copies.Add(1)
	sp := p.begin("get", 1, 0)
	val, err := p.inner.Get(ns, key)
	p.end(sp, len(val))
	return val, err
}

func (p *storeProbe) Put(ns wire.NS, key string, val []byte) error {
	sp := p.begin("put", 1, len(val))
	err := p.inner.Put(ns, key, val)
	p.end(sp, 0)
	return err
}

func (p *storeProbe) Delete(ns wire.NS, key string) error {
	sp := p.begin("delete", 1, 0)
	err := p.inner.Delete(ns, key)
	p.end(sp, 0)
	return err
}

func (p *storeProbe) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	p.copies.Add(1)
	sp := p.begin("list", 1, 0)
	out, err := p.inner.List(ns, prefix)
	p.end(sp, kvBytes(out))
	return out, err
}

func (p *storeProbe) BatchGet(items []wire.KV) ([]wire.KV, error) {
	p.copies.Add(1)
	sp := p.begin("batchget", len(items), 0)
	out, err := p.inner.BatchGet(items)
	p.end(sp, kvBytes(out))
	return out, err
}

func (p *storeProbe) BatchPut(items []wire.KV) error {
	sp := p.begin("batchput", len(items), kvBytes(items))
	err := p.inner.BatchPut(items)
	p.end(sp, 0)
	return err
}

func (p *storeProbe) Stats() (ssp.Stats, error) {
	sp := p.begin("stats", 0, 0)
	st, err := p.inner.Stats()
	p.end(sp, 0)
	return st, err
}

// The three optional capabilities a store may carry. Each is forwarded by
// its own small type so that wrapStore can compose exactly the set the
// wrapped store has: a probe that added or dropped one would flip
// WriteBehind out of per-lane flushing or the Server onto the copying
// read path, and the traced run would measure a different program.

type flusherCap struct {
	p *storeProbe
	f ssp.Flusher
}

func (c flusherCap) Barrier() error {
	sp := c.p.span("barrier")
	err := c.f.Barrier()
	c.p.rec.end(sp)
	return err
}

// routerCap forwards without spans: Routes/RouteID are in-memory ring
// lookups made once per buffered key, not calls into the layer.
type routerCap struct{ ssp.Router }

type viewCap struct {
	p *storeProbe
	v ssp.ViewStore
}

func (c viewCap) GetView(ns wire.NS, key string) ([]byte, error) {
	c.p.views.Add(1)
	sp := c.p.begin("get", 1, 0)
	val, err := c.v.GetView(ns, key)
	c.p.end(sp, len(val))
	return val, err
}

func (c viewCap) ListView(ns wire.NS, prefix string) ([]wire.KV, error) {
	c.p.views.Add(1)
	sp := c.p.begin("list", 1, 0)
	out, err := c.v.ListView(ns, prefix)
	c.p.end(sp, kvBytes(out))
	return out, err
}

func (c viewCap) BatchGetView(items []wire.KV) ([]wire.KV, error) {
	c.p.views.Add(1)
	sp := c.p.begin("batchget", len(items), 0)
	out, err := c.v.BatchGetView(items)
	c.p.end(sp, kvBytes(out))
	return out, err
}

// wrapStore puts a probe in front of inner that exposes exactly inner's
// optional interfaces.
func wrapStore(inner ssp.BlobStore, tr *tracer, l layer, caller *atomic.Uint64) (ssp.BlobStore, *storeProbe) {
	p := &storeProbe{inner: inner, rec: tr.recorder(l), caller: caller}
	f, isF := inner.(ssp.Flusher)
	r, isR := inner.(ssp.Router)
	v, isV := inner.(ssp.ViewStore)
	fc, rc, vc := flusherCap{p, f}, routerCap{r}, viewCap{p, v}
	switch {
	case isF && isR && isV:
		return struct {
			*storeProbe
			flusherCap
			routerCap
			viewCap
		}{p, fc, rc, vc}, p
	case isF && isR:
		return struct {
			*storeProbe
			flusherCap
			routerCap
		}{p, fc, rc}, p
	case isF && isV:
		return struct {
			*storeProbe
			flusherCap
			viewCap
		}{p, fc, vc}, p
	case isR && isV:
		return struct {
			*storeProbe
			routerCap
			viewCap
		}{p, rc, vc}, p
	case isF:
		return struct {
			*storeProbe
			flusherCap
		}{p, fc}, p
	case isR:
		return struct {
			*storeProbe
			routerCap
		}{p, rc}, p
	case isV:
		return struct {
			*storeProbe
			viewCap
		}{p, vc}, p
	}
	return p, p
}
