package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
)

// TestTracedCreateListRoundTrip is the end-to-end acceptance check for the
// observability stack: a traced Sharoes Create-and-List run must produce
// (1) client span trees whose roots account for the measured wall-clock,
// (2) SSP-side spans joined to client traces via the wire trace IDs,
// (3) a well-formed Chrome trace_event JSON export, and
// (4) a metrics snapshot with non-zero op counters and latency quantiles.
func TestTracedCreateListRoundTrip(t *testing.T) {
	sys, err := Build(SysSharoes, Options{Profile: netsim.Unlimited, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Drop the spans Mount produced so the trace covers exactly the
	// wall-clock window measured below.
	sys.Tracer.Reset()
	sys.ServerTracer.Reset()

	start := time.Now()
	res, err := CreateList(sys.FS, sys.Rec, CreateListConfig{Files: 12, Dirs: 3})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.CreateLat.Count != 12 {
		t.Fatalf("CreateLat.Count = %d, want 12", res.CreateLat.Count)
	}

	clientSpans := sys.Tracer.Spans()
	serverSpans := sys.ServerTracer.Spans()
	if len(clientSpans) == 0 || len(serverSpans) == 0 {
		t.Fatalf("spans: client %d, server %d — want both non-empty",
			len(clientSpans), len(serverSpans))
	}

	// (1) Client operations are serialized, so root-span durations must sum
	// to at most the wall clock, and — since every filesystem call in the
	// phase runs under a root span — to a substantial fraction of it.
	clientTraces := map[obs.TraceID]bool{}
	var rootSum time.Duration
	for _, sp := range clientSpans {
		if sp.Trace == 0 || sp.ID == 0 {
			t.Fatalf("client span %q has zero trace/span ID", sp.Name)
		}
		clientTraces[sp.Trace] = true
		if sp.Parent == 0 {
			rootSum += sp.Dur
		}
	}
	if rootSum > wall {
		t.Errorf("root spans sum to %v > wall clock %v", rootSum, wall)
	}
	if rootSum < wall/2 {
		t.Errorf("root spans sum to %v, want ≥ half of wall clock %v", rootSum, wall)
	}

	// (2) Every SSP span must belong to a trace some client span started,
	// i.e. the trace ID actually crossed the wire.
	for _, sp := range serverSpans {
		if !clientTraces[sp.Trace] {
			t.Fatalf("server span %q trace %d unknown to client", sp.Name, sp.Trace)
		}
	}

	// (3) The Chrome export of both span sets must be valid trace_event
	// JSON: a traceEvents array of complete ("ph":"X") events.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, clientSpans, serverSpans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X": // complete event: one per span
			complete++
		case "M": // metadata (process/thread names)
		default:
			t.Fatalf("unexpected chrome event phase %q in %+v", ev.Ph, ev)
		}
		if ev.Name == "" {
			t.Fatalf("malformed chrome event %+v", ev)
		}
	}
	if want := len(clientSpans) + len(serverSpans); complete != want {
		t.Fatalf("chrome trace has %d complete events, want %d", complete, want)
	}

	// (4) Metrics: op counters and latency histograms must have registered
	// the workload on both sides of the wire.
	if n := sys.Metrics.Counter("client.op.create").Value(); n != 12 {
		t.Errorf("client.op.create = %d, want 12", n)
	}
	var sspOps int64
	for _, name := range sys.Metrics.Names() {
		if strings.HasPrefix(name, "ssp.op.") && !strings.HasSuffix(name, ".ns") {
			sspOps += sys.Metrics.Counter(name).Value()
		}
	}
	if sspOps == 0 {
		t.Errorf("no ssp.op.* requests counted")
	}
	hist := sys.Metrics.Histogram("client.op.create.ns").Snapshot()
	if hist.Count != 12 {
		t.Errorf("client.op.create.ns count = %d, want 12", hist.Count)
	}
	if hist.Quantile(0.95) <= 0 || hist.Mean() <= 0 {
		t.Errorf("client.op.create.ns quantile/mean not positive: %+v", hist)
	}
}

// TestUntracedBuildHasNoObservability pins the default: without
// Options.Trace the system carries no tracers, so benchmark runs pay no
// tracing cost. The metrics registry is always attached — counters are
// sharded atomics well below the simulated link's noise floor.
func TestUntracedBuildHasNoObservability(t *testing.T) {
	sys, err := Build(SysSharoes, Options{Profile: netsim.Unlimited})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Tracer != nil || sys.ServerTracer != nil {
		t.Fatalf("untraced build has tracers attached: %+v", sys)
	}
	if sys.Metrics == nil {
		t.Fatal("untraced build is missing its metrics registry")
	}
	if _, err := CreateList(sys.FS, sys.Rec, CreateListConfig{Files: 4, Dirs: 2}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Tracer.Spans(); len(got) != 0 {
		t.Fatalf("nil tracer returned %d spans", len(got))
	}
}
