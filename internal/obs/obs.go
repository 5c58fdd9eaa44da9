// Package obs is the Sharoes observability layer: a stdlib-only metrics
// and tracing subsystem shared by the client filesystem, the SSP server
// and the benchmark harness.
//
// It provides two mechanisms:
//
//   - a metrics Registry of named counters, gauges and fixed-bucket
//     latency histograms (with p50/p95/p99 estimation), each a plain
//     atomic, cheap enough for hot paths and safe under -race;
//
//   - hierarchical trace Spans on the monotonic clock, recording each
//     client operation's tree — resolve → CAP unwrap → RPC → crypto —
//     with a Chrome trace_event JSON exporter. A trace ID propagated
//     through the wire protocol lets SSP-side spans join client traces.
//
// A span carries a cost Class, the bucket of the paper's Figure 13 its
// time belongs to. The totals per class are kept by stats.Recorder,
// which times the same crypto.* and rpc.* sections with its own clock.
//
// Every type follows the nil-receiver discipline: a nil *Registry,
// *Tracer, *Span, *Counter, *Gauge or *Histogram discards all
// measurements, so instrumentation call sites never need nil checks and
// uninstrumented runs pay almost nothing.
//
// Security invariant: span names, annotations and metric names are
// operational labels that may end up in logs, debug endpoints and
// committed benchmark artifacts. Key material must never be routed into
// them: a sharocrypto key prints redacted, and the sharoes-vet boundary
// analyzer confines its raw bytes (Marshal) to a listed set of sites.
package obs

// Class is the cost bucket a span's time is charged to. The paper's
// third bucket, OTHER, is never charged: it is the wall time the two
// classes leave over (stats.BreakdownFrom).
type Class uint8

// Cost classes. ClassNone marks structural spans (operation roots,
// resolve steps) that are not charged to any bucket.
const (
	ClassNone Class = iota
	ClassNetwork
	ClassCrypto
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNetwork:
		return "NETWORK"
	case ClassCrypto:
		return "CRYPTO"
	default:
		return "NONE"
	}
}
