package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	// Bucket 0 covers (0, 1µs]; each boundary value must land in the
	// bucket it bounds, and one nanosecond more must land in the next.
	cases := []struct {
		nanos int64
		want  int
	}{
		{0, 0},
		{1, 0},
		{bucketBaseNanos, 0},       // exactly 1µs → bucket 0
		{bucketBaseNanos + 1, 1},   // 1µs+1ns → bucket 1
		{2 * bucketBaseNanos, 1},   // 2µs → bucket 1
		{2*bucketBaseNanos + 1, 2}, // 2µs+1 → bucket 2
		{bucketUpperNanos(10), 10},
		{bucketUpperNanos(10) + 1, 11},
		{bucketUpperNanos(numFiniteBuckets - 1), numFiniteBuckets - 1},
		{bucketUpperNanos(numFiniteBuckets-1) + 1, numFiniteBuckets}, // overflow
		{1 << 62, numFiniteBuckets},
	}
	for _, c := range cases {
		if got := bucketFor(c.nanos); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.nanos, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 1.5µs: all in bucket 1 (1µs, 2µs].
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Mean(); got != 1500*time.Nanosecond {
		t.Fatalf("mean = %v", got)
	}
	// Every quantile of a single-bucket population must stay inside
	// that bucket's bounds.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < 0 || v > 2*time.Microsecond {
			t.Errorf("q%.2f = %v outside bucket (0, 2µs]", q, v)
		}
	}
	// Median of the interpolation must sit near the bucket midpoint.
	if med := s.Quantile(0.5); med < time.Microsecond || med > 2*time.Microsecond {
		t.Errorf("median %v not in (1µs, 2µs]", med)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	} {
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
	}
	s := h.Snapshot()
	p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// p99 of this population must land in the top decade.
	if p99 < 50*time.Millisecond {
		t.Errorf("p99 = %v, want ≥ 50ms", p99)
	}
	if p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ≤ 2ms", p50)
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Hour)
	s := h.Snapshot()
	if s.Buckets[numFiniteBuckets] != 1 {
		t.Fatal("overflow observation not in overflow bucket")
	}
	want := time.Duration(bucketUpperNanos(numFiniteBuckets - 1))
	if got := s.Quantile(0.99); got != want {
		t.Fatalf("overflow quantile = %v, want clamp to %v", got, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(time.Second)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 2 {
		t.Fatalf("merged count = %d", sa.Count)
	}
	if sa.SumNanos != int64(time.Millisecond+time.Second) {
		t.Fatalf("merged sum = %d", sa.SumNanos)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.ops")
	if c != r.Counter("test.ops") {
		t.Fatal("counter handle not stable")
	}
	c.Inc()
	c.Add(2)
	r.Gauge("test.conns").Set(7)
	r.Histogram("test.lat.ns").Observe(3 * time.Millisecond)

	snap := r.Snapshot()
	if snap.Counters["test.ops"] != 3 {
		t.Fatalf("counter = %d", snap.Counters["test.ops"])
	}
	if snap.Gauges["test.conns"] != 7 {
		t.Fatalf("gauge = %d", snap.Gauges["test.conns"])
	}
	hj := snap.Histograms["test.lat.ns"]
	if hj.Count != 1 || hj.MeanNs != int64(3*time.Millisecond) {
		t.Fatalf("hist json = %+v", hj)
	}
	if hj.P50Ns <= 0 || hj.P99Ns < hj.P50Ns {
		t.Fatalf("hist quantiles = %+v", hj)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v", err)
	}
	if decoded.Counters["test.ops"] != 3 {
		t.Fatalf("decoded counter = %d", decoded.Counters["test.ops"])
	}

	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n != 3 {
		t.Fatalf("snapshot holds %d metrics, want 3", n)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

func TestClassString(t *testing.T) {
	if ClassNetwork.String() != "NETWORK" || ClassCrypto.String() != "CRYPTO" || ClassNone.String() != "NONE" {
		t.Error("class strings wrong")
	}
}
