package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (bench_test.go keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a user of the filesystem sees. Every metric is
// reported, and is non-zero, on every workload; what the write and read
// ops are per workload is in workloadDef. Times of the loopback workloads
// are on the reference machine (calib.go). A bound is about three times
// the metric's run-to-run spread on its noisiest workload (ten seeds per
// workload, twice; README.md "Observed spread"). setup_s has the widest:
// a run holds three set-ups, not thirty rounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"write_p50_ms", "ms", "lower", 0.15},
	{"read_p50_ms", "ms", "lower", 0.15},
	{"wire_bytes_per_op", "B/op", "lower", 0.08},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.03},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

type report map[string]value

// endToEndReport derives the end-to-end metrics from an untraced pass.
func endToEndReport(p *pass) report {
	return report{
		"setup_s":                    {median(p.setupS) * p.speed, len(p.setupS)},
		"ops_per_s":                  {median(p.opsPerS) / p.speed, len(p.opsPerS)},
		"write_p50_ms":               {medianMs(p.samples[p.def.writeOp]) * p.speed, len(p.samples[p.def.writeOp])},
		"read_p50_ms":                {medianMs(p.samples[p.def.readOp]) * p.speed, len(p.samples[p.def.readOp])},
		"wire_bytes_per_op":          {ratio(float64(p.total.wireBytes), float64(p.ops)), p.ops},
		"stored_bytes_per_user_byte": {ratio(float64(p.storedBytes), float64(p.userBytes)), 1},
	}
}

// perLayerStatic lists the per-layer metrics other than the micro rows,
// which perLayerDefs appends from a micro run's row names.
var perLayerStatic = []metricDef{
	// fs: client.Session behind vfs.FS. The p50/p99/MBps rows are
	// end-to-end readings that exist on some workloads only, or did not
	// repeat within a tenth between runs, so they carry no bound.
	{"fs.ops", "count", "higher", 0},
	{"fs.wall_pct", "%", "lower", 0},
	{"fs.self_ms_per_op", "ms", "lower", 0},
	{"fs.store_wait_ms_per_op", "ms", "lower", 0},
	{"fs.other_ms_per_op", "ms", "lower", 0},
	{"fs.rpcs_per_op", "1/op", "lower", 0},
	{"fs.alloc_kb_per_op", "KiB/op", "lower", 0},
	{"fs.op_p99_ms", "ms", "lower", 0},
	{"fs.create_p50_ms", "ms", "lower", 0},
	{"fs.remove_p50_ms", "ms", "lower", 0},
	{"fs.write_MBps", "MiB/s", "higher", 0},
	{"fs.read_MBps", "MiB/s", "higher", 0},
	// crypto: sharocrypto + cap + meta, from the sessions' own recorders.
	{"crypto.ms_per_op", "ms", "lower", 0},
	{"crypto.ops_per_op", "1/op", "lower", 0},
	{"crypto.share", "ratio", "lower", 0},
	// cache: Session.CacheStats.
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.misses_per_op", "1/op", "lower", 0},
	// wb: ssp.WriteBehind.
	{"wb.calls", "count", "lower", 0},
	{"wb.wall_pct", "%", "lower", 0},
	{"wb.self_us_per_call", "us", "lower", 0},
	{"wb.flushes", "count", "lower", 0},
	{"wb.items_per_flush", "1/flush", "higher", 0},
	{"wb.lane_flushes", "count", "lower", 0},
	{"wb.barrier_ms", "ms", "lower", 0},
	{"wb.read_stall_ms", "ms", "lower", 0},
	// shard: shard.Store.
	{"shard.calls", "count", "lower", 0},
	{"shard.wall_pct", "%", "lower", 0},
	{"shard.self_us_per_call", "us", "lower", 0},
	{"shard.fanout", "1/call", "lower", 0},
	{"shard.get.hedged", "count", "lower", 0},
	{"shard.get.hedge_won", "count", "higher", 0},
	{"shard.repair", "count", "lower", 0},
	{"shard.put.bg_fail", "count", "lower", 0},
	{"shard.put.bg_shed", "count", "lower", 0},
	// resilience: resilience.Store (+ ReconnectClient's counter).
	{"resilience.wall_pct", "%", "lower", 0},
	{"resilience.self_us_per_call", "us", "lower", 0},
	{"resilience.retry.attempts", "count", "lower", 0},
	{"ssp.reconnect.attempts", "count", "lower", 0},
	// transport: ssp.Client + wire + link + ssp.Server.
	{"transport.calls", "count", "lower", 0},
	{"transport.wall_pct", "%", "lower", 0},
	{"transport.self_us_per_call", "us", "lower", 0},
	{"transport.us_per_MiB", "us/MiB", "lower", 0},
	{"transport.bytes_per_call", "B/call", "lower", 0},
	{"transport.transmits_per_call", "1/call", "lower", 0},
	{"transport.inflight_max", "count", "higher", 0},
	// store: the MemStore under the Server.
	{"store.calls", "count", "lower", 0},
	{"store.wall_pct", "%", "lower", 0},
	{"store.us_per_call", "us", "lower", 0},
	{"store.view_calls", "count", "higher", 0},
	{"store.copy_calls", "count", "lower", 0},
	// trace: the ledger's own health.
	{"trace.closure_err_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.idle_pct", "%", "lower", 0},
	{"trace.machine_speed", "ratio", "higher", 0},
}

// perLayerDefs is perLayerStatic plus two metrics per micro row.
func perLayerDefs(micro []microRow) []metricDef {
	defs := append([]metricDef(nil), perLayerStatic...)
	for _, m := range micro {
		defs = append(defs, metricDef{m.timeName(), m.unit, "lower", 0})
		if m.hasAllocs {
			defs = append(defs, metricDef{m.name + "_allocs", "1/op", "lower", 0})
		}
	}
	return defs
}

// perLayerReport derives the per-layer metrics from a traced pass t; u is
// the untraced pass of the same process (same seed and counts), which
// supplies the readings tracing would disturb. Times are on the reference
// machine, like the end-to-end ones; the micro rows are as measured.
func perLayerReport(u, t *pass, micro []microRow) report {
	ops := float64(t.ops)
	lg := t.lg.scaled(t.speed)
	c := t.total
	c.cryptoNs = int64(float64(c.cryptoNs) * t.speed)
	wallNs := float64(t.wallNs) * t.speed
	reg := func(name string) float64 { return float64(c.reg[regIndex(name)]) }
	calls := func(l layer) float64 { return float64(c.probe[l].calls) }
	perCallUs := func(l layer) float64 { return ratio(float64(lg.Self[l])/1e3, calls(l)) }
	// The top of the stack is the first seam below the sessions; every
	// call into it is a session waiting on the store. A write-behind
	// read waits on the seam below it, or stalls behind a flush.
	var top layer
	for top = layerWB; top < layerStore && c.probe[top].calls == 0; top++ {
	}
	fsDur, storeWait := float64(lg.Dur[layerFS]), float64(lg.Dur[top])
	var belowWB layer
	for belowWB = layerShard; belowWB < layerStore && c.probe[belowWB].calls == 0; belowWB++ {
	}
	// The partition is checked on the ledger as swept, before scaling.
	closure := t.lg.Idle - t.wallNs
	for _, s := range t.lg.Self {
		closure += s
	}
	wallPct := func(l layer) value { return value{100 * ratio(float64(lg.Self[l]), wallNs), t.rounds} }
	uTail, _ := tail(pooled(&u.samples))
	rounds := float64(t.rounds)

	r := report{
		"fs.ops":                  {ops, t.rounds},
		"fs.self_ms_per_op":       {ratio((fsDur-storeWait)/1e6, ops), t.ops},
		"fs.store_wait_ms_per_op": {ratio(storeWait/1e6, ops), t.ops},
		"fs.other_ms_per_op":      {ratio((fsDur-storeWait-float64(c.cryptoNs))/1e6, ops), t.ops},
		"fs.rpcs_per_op":          {ratio(calls(top), ops), t.ops},
		"fs.alloc_kb_per_op":      {ratio(float64(u.total.allocBytes)/1024, float64(u.ops)), u.ops},
		"fs.op_p99_ms":            {uTail * u.speed, u.ops},
		"fs.create_p50_ms":        {medianMs(u.samples[opWriteFile]) * u.speed, len(u.samples[opWriteFile])},
		"fs.remove_p50_ms":        {medianMs(u.samples[opRemove]) * u.speed, len(u.samples[opRemove])},
		"fs.write_MBps":           {median(u.mbps["write"]) / u.speed, len(u.mbps["write"])},
		"fs.read_MBps":            {median(u.mbps["read"]) / u.speed, len(u.mbps["read"])},

		"crypto.ms_per_op":  {ratio(float64(c.cryptoNs)/1e6, ops), t.ops},
		"crypto.ops_per_op": {ratio(float64(c.cryptoOps), ops), t.ops},
		// Each session's crypto time is bounded by its own wall time, so
		// dividing by sessions x wall keeps the share within 1.
		"crypto.share": {ratio(float64(c.cryptoNs), wallNs*float64(t.sessions)), t.rounds},

		"cache.hit_ratio":     {ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), int(c.cacheHits + c.cacheMisses)},
		"cache.misses_per_op": {ratio(float64(c.cacheMisses), ops), t.ops},

		"wb.calls":            {calls(layerWB), t.rounds},
		"wb.self_us_per_call": {perCallUs(layerWB), int(calls(layerWB))},
		"wb.flushes":          {reg("ssp.wb.flushes"), t.rounds},
		"wb.items_per_flush":  {ratio(reg("ssp.wb.flushed_items"), reg("ssp.wb.flushes")), int(reg("ssp.wb.flushes"))},
		"wb.lane_flushes":     {reg("ssp.wb.lane_flushes"), t.rounds},
		"wb.barrier_ms":       {ratio(float64(lg.Barrier[layerWB])/1e6, rounds), t.rounds},
		"wb.read_stall_ms":    {ratio(float64(lg.ReadDur[layerWB]-lg.ReadDur[belowWB])/1e6, rounds), t.rounds},

		"shard.calls":            {calls(layerShard), t.rounds},
		"shard.self_us_per_call": {perCallUs(layerShard), int(calls(layerShard))},
		"shard.fanout":           {ratio(calls(layerResilience), calls(layerShard)), int(calls(layerShard))},
		"shard.get.hedged":       {reg("shard.get.hedged"), t.rounds},
		"shard.get.hedge_won":    {reg("shard.get.hedge_won"), t.rounds},
		"shard.repair":           {reg("shard.repair"), t.rounds},
		"shard.put.bg_fail":      {reg("shard.put.bg_fail"), t.rounds},
		"shard.put.bg_shed":      {reg("shard.put.bg_shed"), t.rounds},

		"resilience.self_us_per_call": {perCallUs(layerResilience), int(calls(layerResilience))},
		"resilience.retry.attempts":   {reg("resilience.retry.attempts"), t.rounds},
		"ssp.reconnect.attempts":      {reg("ssp.reconnect.attempts"), t.rounds},

		"transport.calls":              {calls(layerTransport), t.rounds},
		"transport.self_us_per_call":   {perCallUs(layerTransport), int(calls(layerTransport))},
		"transport.us_per_MiB":         {ratio(float64(lg.Self[layerTransport])/1e3, float64(c.probe[layerTransport].bytes)/(1<<20)), int(calls(layerTransport))},
		"transport.bytes_per_call":     {ratio(float64(c.wireBytes), calls(layerTransport)), int(calls(layerTransport))},
		"transport.transmits_per_call": {ratio(reg("netsim.transmits"), calls(layerTransport)), int(calls(layerTransport))},
		"transport.inflight_max":       {float64(lg.MaxOpen[layerTransport]), t.rounds},

		"store.calls":       {calls(layerStore), t.rounds},
		"store.us_per_call": {perCallUs(layerStore), int(calls(layerStore))},
		"store.view_calls":  {float64(c.probe[layerStore].views), t.rounds},
		"store.copy_calls":  {float64(c.probe[layerStore].copies), t.rounds},

		"trace.closure_err_pct": {100 * ratio(math.Abs(float64(closure)), float64(t.wallNs)), t.rounds},
		"trace.overhead_pct":    {100 * (1 - ratio(median(t.opsPerS)/t.speed, median(u.opsPerS)/u.speed)), t.rounds},
		"trace.spans":           {float64(len(t.spans)), t.rounds},
		"trace.idle_pct":        {100 * ratio(float64(lg.Idle), wallNs), t.rounds},
		"trace.machine_speed":   {t.speed, t.rounds},

		"fs.wall_pct": wallPct(layerFS), "wb.wall_pct": wallPct(layerWB), "shard.wall_pct": wallPct(layerShard),
		"resilience.wall_pct": wallPct(layerResilience), "transport.wall_pct": wallPct(layerTransport),
		"store.wall_pct": wallPct(layerStore),
	}
	if c.probe[layerWB].calls == 0 {
		r["wb.read_stall_ms"] = value{0, t.rounds}
	}
	return r.withMicro(micro)
}

// withMicro adds two metrics per micro row.
func (r report) withMicro(micro []microRow) report {
	for _, m := range micro {
		r[m.timeName()] = value{m.time, m.calls}
		if m.hasAllocs {
			r[m.name+"_allocs"] = value{m.allocs, m.calls}
		}
	}
	return r
}

func pooled(samples *[numOps][]int64) []int64 {
	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	return all
}

// print writes the metrics of defs found in r, one per line, by name
// with unit and sample count.
func (r report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14s %-8s n=%d\n", d.name, formatValue(v.v), d.unit, v.n)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.6f", v)
	}
}

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r report) resultLine(defs []metricDef, attempted, failed int) (string, error) {
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricJSON, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := r[d.name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			missing = append(missing, d.name)
			continue
		}
		line.Metrics[d.name] = metricJSON{v.v, d.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics missing from the report: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(line)
	return string(b), err
}
