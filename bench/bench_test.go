package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// toySizing keeps every shape of fullSizing at counts that let all four
// workloads run both passes within the tier-1 budget.
var toySizing = sizing{
	clDirs: 2, clFilesPerDir: 4,
	pmPool: 24, pmTx: 24,
	bulkFiles: 2, bulkBytes: 3*blockSize + 100,
	shPool: 16, shTx: 16,
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func mustPrincipals(t *testing.T) *principals {
	t.Helper()
	who, err := loadPrincipals()
	if err != nil {
		t.Fatal(err)
	}
	return who
}

var toyMicro struct {
	once sync.Once
	rows []microRow
	err  error
}

// microRows runs the micro rows once per test binary, a millisecond each.
func microRows(t *testing.T) []microRow {
	t.Helper()
	toyMicro.once.Do(func() {
		who, err := loadPrincipals()
		if err != nil {
			toyMicro.err = err
			return
		}
		toyMicro.rows, toyMicro.err = runMicro(who, t.TempDir(), time.Millisecond)
	})
	if toyMicro.err != nil {
		t.Fatal(toyMicro.err)
	}
	return toyMicro.rows
}

// capStore is a null store carrying a chosen set of optional interfaces.
type (
	capF  struct{}
	capR  struct{}
	capV  struct{}
	capFR struct {
		nullStore
		capF
		capR
	}
	capFV struct {
		nullStore
		capF
		capV
	}
	capRV struct {
		nullStore
		capR
		capV
	}
	capFRV struct {
		nullStore
		capF
		capR
		capV
	}
)

func (capF) Barrier() error                                  { return nil }
func (capR) Routes() int                                     { return 1 }
func (capR) RouteID(wire.NS, string) int                     { return 0 }
func (capV) GetView(wire.NS, string) ([]byte, error)         { return nil, nil }
func (capV) ListView(wire.NS, string) ([]wire.KV, error)     { return nil, nil }
func (capV) BatchGetView(items []wire.KV) ([]wire.KV, error) { return nil, nil }

// TestWrapStoreKeepsCapabilitySet covers all eight combinations of the
// three optional interfaces: a probe has exactly those of what it wraps.
func TestWrapStoreKeepsCapabilitySet(t *testing.T) {
	stores := []ssp.BlobStore{
		nullStore{},
		struct {
			nullStore
			capF
		}{},
		struct {
			nullStore
			capR
		}{},
		struct {
			nullStore
			capV
		}{},
		capFR{}, capFV{}, capRV{}, capFRV{},
	}
	seen := map[string]bool{}
	for _, s := range stores {
		wrapped, _ := wrapStore(s, newTracer(), layerStore, nil)
		if got, want := capsOf(wrapped), capsOf(s); got != want {
			t.Errorf("probe over a store with capabilities %q exposes %q", want, got)
		}
		if !isProbe(wrapped) {
			t.Errorf("wrapStore result over %q is not recognised as a probe", capsOf(s))
		}
		seen[capsOf(s)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("fixtures cover %d capability sets, want 8", len(seen))
	}
}

// TestTracedStackIsTheSameProgram walks the untraced and the traced stack
// of every workload seam by seam: same seams, same optional interfaces at
// each, no probe in the untraced one and one at every seam of the traced.
func TestTracedStackIsTheSameProgram(t *testing.T) {
	who := mustPrincipals(t)
	for _, def := range workloads {
		plain, err := buildStack(def.spec(toySizing), who, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := buildStack(def.spec(toySizing), who, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.boundaries) != len(traced.boundaries) || len(plain.boundaries) == 0 {
			t.Fatalf("%s: %d seams untraced, %d traced", def.name, len(plain.boundaries), len(traced.boundaries))
		}
		for i, b := range plain.boundaries {
			tb := traced.boundaries[i]
			if b.name != tb.name || capsOf(b.store) != capsOf(tb.store) {
				t.Errorf("%s seam %d: untraced %s %q, traced %s %q", def.name, i, b.name, capsOf(b.store), tb.name, capsOf(tb.store))
			}
			if isProbe(b.store) {
				t.Errorf("%s: untraced stack has a probe at %s", def.name, b.name)
			}
			if !isProbe(tb.store) {
				t.Errorf("%s: traced stack has no probe at %s", def.name, tb.name)
			}
		}
		// The capabilities the stack's behaviour hinges on are really there.
		for _, b := range plain.boundaries {
			switch b.name[strings.IndexByte(b.name, '/')+1:] {
			case "store":
				if capsOf(b.store) != "V" {
					t.Errorf("%s: backing store exposes %q, want the borrowed-read ViewStore", def.name, capsOf(b.store))
				}
			case "shard":
				if !strings.Contains(capsOf(b.store), "R") {
					t.Errorf("%s: shard router exposes %q, want Router for per-lane flushes", def.name, capsOf(b.store))
				}
			}
		}
		if err := plain.Close(); err != nil {
			t.Error(err)
		}
		if err := traced.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestLedgerPartitionsTheWindow checks deepest-open-span attribution on a
// hand-made timeline.
func TestLedgerPartitionsTheWindow(t *testing.T) {
	spans := []span{
		{layer: layerFS, op: "stat", start: 10, end: 90},
		{layer: layerTransport, op: "get", start: 20, end: 60},
		{layer: layerStore, op: "get", start: 30, end: 40},
		{layer: layerTransport, op: "put", start: 50, end: 70},   // overlaps the first
		{layer: layerWB, op: "barrier", start: 95, end: 120},     // runs past the window
		{layer: layerTransport, op: "put", start: 200, end: 300}, // outside
		{layer: layerTransport, op: "put", start: 80, end: 70},   // never closed
	}
	lg := buildLedger(spans, [][2]int64{{0, 100}})
	want := ledger{Wall: 100, Idle: 15}
	want.Self[layerFS] = 10 + 20
	want.Self[layerTransport] = 10 + 30
	want.Self[layerStore] = 10
	want.Self[layerWB] = 5
	var sum int64
	for l := range lg.Self {
		if lg.Self[l] != want.Self[l] {
			t.Errorf("%s self = %d, want %d", layerNames[l], lg.Self[l], want.Self[l])
		}
		sum += lg.Self[l]
	}
	if lg.Idle != want.Idle || sum+lg.Idle != lg.Wall || lg.Wall != want.Wall {
		t.Errorf("idle %d wall %d selfs %d: want idle %d and selfs+idle = wall = %d", lg.Idle, lg.Wall, sum, want.Idle, want.Wall)
	}
	if lg.Busy[layerFS] != 80 || lg.Busy[layerTransport] != 50 || lg.MaxOpen[layerTransport] != 2 {
		t.Errorf("busy fs %d transport %d, max open transport %d; want 80, 50, 2",
			lg.Busy[layerFS], lg.Busy[layerTransport], lg.MaxOpen[layerTransport])
	}
	if lg.Dur[layerTransport] != 60 || lg.ReadDur[layerTransport] != 40 || lg.Barrier[layerWB] != 0 {
		t.Errorf("transport dur %d read dur %d, wb barrier %d; want 60, 40 and 0 (the barrier leaves the window)",
			lg.Dur[layerTransport], lg.ReadDur[layerTransport], lg.Barrier[layerWB])
	}
}

// TestRefKernelAllocatesNothing: a kernel that allocates runs at the pace
// of the workload's heap and GC, and the calibration would then credit or
// debit a change for the memory it holds.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(100, k.once); n != 0 {
		t.Errorf("the reference kernel makes %v allocations per iteration, want 0", n)
	}
}

// TestNegativeDifferentialKeepsItsMetric: a pass-through row's allocations
// are the difference of two process-wide counts, so one stray malloc in
// the base run takes a zero-alloc decorator below zero; the declared
// metric must still be reported.
func TestNegativeDifferentialKeepsItsMetric(t *testing.T) {
	rows := []microRow{{name: "micro.passthru.x", unit: "ns", hasAllocs: true, allocs: -0.03, calls: 32}}
	if n := len(perLayerDefs(rows)) - len(perLayerStatic); n != 2 {
		t.Errorf("%d metrics defined for the row, want its time and its allocations", n)
	}
	if v, ok := (report{}).withMicro(rows)["micro.passthru.x_allocs"]; !ok || v.v != -0.03 {
		t.Errorf("allocations reported as %v (present: %v), want -0.03", v.v, ok)
	}
}

// TestSmoke runs every workload at toy counts through both passes and
// checks the report the way the driver's contract reads it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	who := mustPrincipals(t)
	micro := microRows(t)
	defs := perLayerDefs(micro)
	if len(workloads) > 8 || len(endToEnd) > 16 || len(defs) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics; the limits are 8, 16 and 128",
			len(workloads), len(endToEnd), len(defs))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), defs...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: not a valid name and unit", d.name, d.unit)
		}
	}
	for _, def := range workloads {
		cfg := passConfig{seed: 7, sz: toySizing, setups: 1}
		u, err := measure(def, cfg, who)
		if err != nil {
			t.Fatal(err)
		}
		cfg.traced = true
		tr, err := measure(def, cfg, who)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*pass{u, tr} {
			if p.failed != 0 || p.attempted == 0 || p.ops == 0 {
				t.Errorf("%s: %d ops, %d attempted, %d failed: %s", def.name, p.ops, p.attempted, p.failed, p.firstFailure)
			}
		}
		if u.ops != tr.ops {
			t.Errorf("%s: %d ops untraced, %d traced: the passes differ in shape", def.name, u.ops, tr.ops)
		}

		e2e := endToEndReport(u)
		if _, err := e2e.resultLine(endToEnd, u.attempted, u.failed); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
		for _, d := range endToEnd {
			if e2e[d.name].v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must be above 0 on every workload", def.name, d.name, e2e[d.name].v)
			}
		}
		layers := perLayerReport(u, tr, micro)
		if _, err := layers.resultLine(defs, tr.attempted, tr.failed); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
		if c := layers["trace.closure_err_pct"].v; c >= 1 {
			t.Errorf("%s: ledger closes to %v %% of the traced wall, want < 1", def.name, c)
		}
		if s := layers["crypto.share"].v; s <= 0 || s > 1 {
			t.Errorf("%s: crypto.share = %v, want within (0, 1]", def.name, s)
		}
		if layers["store.view_calls"].v == 0 || layers["store.copy_calls"].v != 0 {
			t.Errorf("%s: %v borrowed and %v copied reads at the Server's store: the zero-copy path is not the one running",
				def.name, layers["store.view_calls"].v, layers["store.copy_calls"].v)
		}
		if layers["resilience.retry.attempts"].v != 0 || layers["ssp.reconnect.attempts"].v != 0 {
			t.Errorf("%s: retries or redials on a fault-free stack", def.name)
		}
		sharded := def.spec(toySizing).backends > 1
		if (layers["shard.calls"].v > 0) != sharded || (layers["wb.calls"].v > 0) != def.spec(toySizing).writeBehind {
			t.Errorf("%s: shard.calls %v, wb.calls %v do not match the declared stack", def.name, layers["shard.calls"].v, layers["wb.calls"].v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step and
// inside the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(blob))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, the program has %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d in the program", kind, len(declared), len(defs))
			return
		}
		for i, m := range declared {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, the program has %+v", kind, i, m, d)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: declared bound %v, the program has %v (and the cap is 0.25)", m.Name, m.Bound, d.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayerDefs(microRows(t)), false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the contract wants a setup_s metric in s, lower is better")
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a wider bound than setup_s", d.name)
		}
	}
}

// capsOf names the optional interfaces a store exposes, for the
// traced-versus-untraced stack comparison.
func capsOf(s ssp.BlobStore) string {
	out := ""
	if _, ok := s.(ssp.Flusher); ok {
		out += "F"
	}
	if _, ok := s.(ssp.Router); ok {
		out += "R"
	}
	if _, ok := s.(ssp.ViewStore); ok {
		out += "V"
	}
	return out
}

// isProbe reports whether s is one of wrapStore's results.
func isProbe(s ssp.BlobStore) bool {
	_, ok := s.(interface{ probe() *storeProbe })
	return ok
}

func (p *storeProbe) probe() *storeProbe { return p }
