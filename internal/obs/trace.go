package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one operation tree across processes: the client
// allocates it at the operation root and propagates it through
// wire.Request so SSP-side spans join the same trace.
type TraceID uint64

// SpanID identifies one span within a process group.
type SpanID uint64

// idCounter allocates trace and span IDs. A process-global monotonic
// counter is sufficient: IDs only need to be unique within the set of
// tracers whose spans are merged into one export, and they must not be
// derived from randomness (sharoes-vet forbids math/rand outside
// workloads, and crypto/rand is wasted on non-secret labels).
var idCounter atomic.Uint64

func nextID() uint64 { return idCounter.Add(1) }

// Attr is one span annotation. Values are operational labels — never put
// key material or plaintext content in them.
type Attr struct {
	Key string
	Val string
}

// Span is one timed region. Exported fields are read-only after End;
// mutate only through Annotate.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Class  Class
	Proc   string // owning tracer's process label ("client", "ssp")

	Start time.Time // carries a monotonic reading
	Dur   time.Duration

	tr       *Tracer
	detached bool // not on the tracer's span stack (remote spans)

	mu    sync.Mutex
	attrs []Attr
}

// Annotate attaches a key/value label to the span. Safe on a nil span
// and safe for concurrent use.
func (sp *Span) Annotate(key, val string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Val: val})
	sp.mu.Unlock()
}

// Attrs returns a copy of the span's annotations.
func (sp *Span) Attrs() []Attr {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]Attr, len(sp.attrs))
	copy(out, sp.attrs)
	return out
}

// End finishes the span: its duration is fixed from the monotonic clock
// and it is moved to the tracer's finished-span buffer. Safe on a nil
// span; ending twice is a no-op.
func (sp *Span) End() {
	if sp == nil || sp.tr == nil {
		return
	}
	sp.tr.end(sp)
}

// Tracer collects spans for one process ("client" or "ssp"). Starting a
// span with an empty stack opens a new trace; nested Starts parent to
// the innermost open span. The stack makes instrumentation call sites
// context-free — the Sharoes session serializes operations, so at most
// one operation tree is open per tracer at a time — while remaining
// mutex-guarded so misuse can never corrupt memory.
//
// A nil *Tracer hands out nil spans: tracing disabled costs one branch.
type Tracer struct {
	proc string

	mu    sync.Mutex
	stack []*Span
	spans []*Span
	drops int64
	limit int
}

// DefaultSpanLimit bounds the finished spans a tracer retains; beyond
// it, spans are counted but dropped, so tracing a long run degrades
// instead of exhausting memory.
const DefaultSpanLimit = 1 << 17

// NewTracer returns a tracer labelled with proc ("client", "ssp").
func NewTracer(proc string) *Tracer {
	return &Tracer{proc: proc, limit: DefaultSpanLimit}
}

// Start opens a span named name with cost class class. With no span
// open it roots a new trace; otherwise it becomes a child of the
// innermost open span.
func (t *Tracer) Start(name string, class Class) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{Name: name, Class: class, Proc: t.proc, tr: t}
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		sp.Trace = top.Trace
		sp.Parent = top.ID
	} else {
		sp.Trace = TraceID(nextID())
	}
	sp.ID = SpanID(nextID())
	t.stack = append(t.stack, sp)
	t.mu.Unlock()
	sp.Start = time.Now()
	return sp
}

// StartRemote opens a detached span joining a trace started elsewhere —
// the SSP serving a request carrying the client's trace ID. Detached
// spans never touch the span stack, so concurrent connection handlers
// can share one tracer.
func (t *Tracer) StartRemote(trace TraceID, parent SpanID, name string, class Class) *Span {
	if t == nil || trace == 0 {
		return nil
	}
	sp := &Span{
		Trace: trace, ID: SpanID(nextID()), Parent: parent,
		Name: name, Class: class, Proc: t.proc, tr: t, detached: true,
	}
	sp.Start = time.Now()
	return sp
}

// Current returns the innermost open span's trace and span ID, or zeros
// when no span is open. The RPC layer uses it to stamp outgoing
// requests.
func (t *Tracer) Current() (TraceID, SpanID) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].Trace, t.stack[n-1].ID
	}
	return 0, 0
}

func (t *Tracer) end(sp *Span) {
	dur := time.Since(sp.Start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp.Dur != 0 || sp.tr == nil {
		return // already ended
	}
	sp.Dur = dur
	if dur == 0 {
		sp.Dur = 1 // preserve "ended" even for sub-ns spans
	}
	if !sp.detached {
		// Pop sp; tolerate out-of-order ends by unwinding to it.
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == sp {
				t.stack = t.stack[:i]
				break
			}
		}
	}
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, sp)
	} else {
		t.drops++
	}
}

// Spans returns the finished spans, in end order. The returned slice is
// a copy; the spans themselves are shared and must be treated read-only.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports spans discarded over the retention limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Reset discards all finished spans (open spans are unaffected).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.drops = 0
}
