package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a named monotonic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named instantaneous value (e.g. live connections).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- histogram -------------------------------------------------------------

// Histogram bucketing: bucket i covers (upper(i-1), upper(i)] nanoseconds
// with upper(i) = 1µs·2^i, i = 0..numFiniteBuckets-1, spanning 1 µs to
// ~137 s; one final bucket catches overflow. Fixed geometric buckets keep
// Observe allocation-free and branch-cheap, at the price of a bounded
// (≤ 2×) relative quantile error — the right trade for latency telemetry.
const (
	numFiniteBuckets = 28
	numBuckets       = numFiniteBuckets + 1
	bucketBaseNanos  = 1000 // 1 µs
)

// bucketUpperNanos returns the inclusive upper bound of finite bucket i
// in nanoseconds.
func bucketUpperNanos(i int) int64 {
	return bucketBaseNanos << uint(i)
}

// bucketFor returns the bucket index for a duration of n nanoseconds.
func bucketFor(n int64) int {
	if n <= bucketBaseNanos {
		return 0
	}
	for i := 1; i < numFiniteBuckets; i++ {
		if n <= bucketUpperNanos(i) {
			return i
		}
	}
	return numFiniteBuckets // overflow
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.buckets[bucketFor(n)].Add(1)
	h.sum.Add(n)
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.SumNanos = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, and the mergeable
// value the benchmark harness aggregates across repetitions.
type HistSnapshot struct {
	Count    int64
	SumNanos int64
	Buckets  [numBuckets]int64
}

// Merge adds o's observations into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the mean observed duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the containing bucket. The overflow bucket is clamped to the
// last finite bound. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next || i == numBuckets-1 {
			if i >= numFiniteBuckets {
				return time.Duration(bucketUpperNanos(numFiniteBuckets - 1))
			}
			lo := int64(0)
			if i > 0 {
				lo = bucketUpperNanos(i - 1)
			}
			hi := bucketUpperNanos(i)
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum = next
	}
	return 0
}

// --- registry --------------------------------------------------------------

// Registry is a named metric namespace. Metric handles are get-or-create
// and stable: hot paths should look a handle up once and cache it. A nil
// *Registry hands out nil handles, whose methods discard everything.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(&r.mu, r.counters, name)
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(&r.mu, r.gauges, name)
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(&r.mu, r.hists, name)
}

// getOrCreate returns m[name], adding a zero metric under mu's write
// lock the first time the name is asked for.
func getOrCreate[T any](mu *sync.RWMutex, m map[string]*T, name string) *T {
	mu.RLock()
	v := m[name]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = m[name]; v == nil {
		v = new(T)
		m[name] = v
	}
	return v
}

// HistJSON is the JSON rendering of one histogram.
type HistJSON struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
}

// RegistrySnapshot is a point-in-time copy of every metric, in the shape
// served by the SSP debug endpoint and flushed on shutdown.
type RegistrySnapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistJSON `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistJSON{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		snap.Histograms[name] = HistJSON{
			Count:  s.Count,
			MeanNs: int64(s.Mean()),
			P50Ns:  int64(s.Quantile(0.50)),
			P95Ns:  int64(s.Quantile(0.95)),
			P99Ns:  int64(s.Quantile(0.99)),
		}
	}
	return snap
}

// WriteJSON writes the expvar-style metrics snapshot to w with sorted,
// stable key order (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
