package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/stats"
)

// ReportSchema versions the machine-readable benchmark output. Consumers
// (CI smoke checks, plotting scripts) match on it exactly; any
// incompatible change to BenchReport bumps the suffix.
const ReportSchema = "sharoes-bench/v1"

// BenchRow is one measured (figure, operation, system) cell: latency
// distribution, Figure-13-style cost decomposition, and bytes moved.
// All durations are nanoseconds so the JSON is unit-unambiguous.
type BenchRow struct {
	Figure string `json:"figure"`
	Op     string `json:"op"`
	System string `json:"system"`
	// CachePct is the Figure 10 x-axis (cache size as percent of the
	// data set); absent for figures without a cache sweep.
	CachePct *int `json:"cache_pct,omitempty"`

	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MeanNs  int64 `json:"mean_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P95Ns   int64 `json:"p95_ns"`
	P99Ns   int64 `json:"p99_ns"`

	NetworkNs int64 `json:"network_ns"`
	CryptoNs  int64 `json:"crypto_ns"`
	OtherNs   int64 `json:"other_ns"`
	BytesOut  int64 `json:"bytes_out"`
	BytesIn   int64 `json:"bytes_in"`
}

// BenchReport is the top-level machine-readable result document written
// by `sharoes-bench -json`.
type BenchReport struct {
	Schema string `json:"schema"`
	Figure string `json:"figure"`
	// Profile names the simulated link ("dsl", "t1", ...) the run used.
	Profile string `json:"profile"`
	// Scale divides the paper's workload sizes (1 = full paper scale).
	Scale int `json:"scale"`
	// Scheme is the Sharoes metadata layout under test.
	Scheme string `json:"scheme"`
	// Parallel is the concurrent-session count the workload ran with
	// (absent or 1 = the paper's serial single-client shape).
	Parallel int `json:"parallel,omitempty"`
	// WriteBehind records whether the write-behind batching layer was
	// interposed between the sessions and the SSP connection.
	WriteBehind bool `json:"write_behind,omitempty"`
	// Shards is the backend SSP count the system ran over (absent or 1 =
	// the paper's single-SSP shape). When > 1 the run went through the
	// consistent-hash shard.Store and the remaining shard fields apply.
	Shards int `json:"shards,omitempty"`
	// Replicas is the shard replication factor R.
	Replicas int `json:"replicas,omitempty"`
	// WriteQuorum is the shard write quorum W (acks required before a put
	// returns).
	WriteQuorum int `json:"write_quorum,omitempty"`
	// ShardFault names the injected whole-shard fault scenario the run
	// survived: "loss" (one shard refusing writes and dropping reads),
	// "slow" (one shard delaying every read past the hedge threshold),
	// "drop" (one shard's connections severed once mid-run) or "flap"
	// (one shard's link severed periodically).
	ShardFault string `json:"shard_fault,omitempty"`
	// SelfHeal records whether the self-healing transport stack
	// (reconnecting clients + classified retries + breakers) was built.
	SelfHeal bool `json:"self_heal,omitempty"`
	// Chaos carries the chaos-campaign verdict for figure "chaos" runs.
	Chaos *ChaosSummary `json:"chaos,omitempty"`
	Rows  []BenchRow    `json:"rows"`
}

// ChaosSummary is the machine-readable verdict of one chaos campaign
// (`sharoes-bench -chaos`): what was injected, what converged, and the
// self-healing counters that prove the transport actually exercised its
// recovery paths.
type ChaosSummary struct {
	Seed     int64  `json:"seed"`
	Profile  string `json:"profile"`
	Workers  int    `json:"workers"`
	Ops      int64  `json:"ops"`      // client operations issued
	Severs   int64  `json:"severs"`   // connection severs injected
	Faults   int64  `json:"faults"`   // fault-window arms (slow/writeerr)
	Redials  int64  `json:"redials"`  // successful reconnects
	Retries  int64  `json:"retries"`  // resilience-layer retries issued
	Breaker  int64  `json:"breaker"`  // breaker open transitions
	Degraded int64  `json:"degraded"` // barriers surfacing classified errors
	// Keys is how many durable keys the convergence check verified;
	// Diverged how many came back wrong or missing (must be 0 to pass).
	Keys     int  `json:"keys"`
	Diverged int  `json:"diverged"`
	Pass     bool `json:"pass"`
}

// benchRow assembles one row from a latency distribution, a total
// duration, and a cost snapshot.
func benchRow(figure, op string, sys SystemKind, totalNs int64, lat obs.HistSnapshot, snap stats.Snapshot) BenchRow {
	return BenchRow{
		Figure:    figure,
		Op:        op,
		System:    sys.String(),
		Count:     lat.Count,
		TotalNs:   totalNs,
		MeanNs:    int64(lat.Mean()),
		P50Ns:     int64(lat.Quantile(0.50)),
		P95Ns:     int64(lat.Quantile(0.95)),
		P99Ns:     int64(lat.Quantile(0.99)),
		NetworkNs: int64(snap.Network),
		CryptoNs:  int64(snap.Crypto),
		OtherNs:   int64(snap.Other),
		BytesOut:  snap.BytesOut,
		BytesIn:   snap.BytesIn,
	}
}

// Fig9Report converts a Figure 9 run into the machine-readable schema:
// two rows per system, one for each phase.
func Fig9Report(rows []Fig9Row, profile string, scale int, scheme string) BenchReport {
	rep := BenchReport{Schema: ReportSchema, Figure: "fig9", Profile: profile, Scale: scale, Scheme: scheme}
	for _, r := range rows {
		rep.Rows = append(rep.Rows,
			benchRow("fig9", "create", r.System, int64(r.Result.Create), r.Result.CreateLat, r.Result.CreateStats),
			benchRow("fig9", "list", r.System, int64(r.Result.List), r.Result.ListLat, r.Result.ListStats))
	}
	return rep
}

// Fig10Report converts a Figure 10 cache sweep into the machine-readable
// schema: one per-transaction row per (system, cache size) point.
func Fig10Report(rows []Fig10Row, profile string, scale int, scheme string) BenchReport {
	rep := BenchReport{Schema: ReportSchema, Figure: "fig10", Profile: profile, Scale: scale, Scheme: scheme}
	for _, r := range rows {
		row := benchRow("fig10", "postmark-tx", r.System, int64(r.Result.Total), r.Result.TxLat, r.Stats)
		pct := r.CachePct
		row.CachePct = &pct
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// ValidateReport checks the structural invariants consumers rely on. It
// is the same check the CI smoke step runs against `sharoes-bench -json`
// output, so schema regressions fail in tests before they fail in CI.
func ValidateReport(rep BenchReport) error {
	if rep.Schema != ReportSchema {
		return fmt.Errorf("report: schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Figure == "" {
		return fmt.Errorf("report: empty figure")
	}
	if rep.Scale < 1 {
		return fmt.Errorf("report: scale %d < 1", rep.Scale)
	}
	if len(rep.Rows) == 0 {
		return fmt.Errorf("report: no rows")
	}
	if rep.Shards < 0 || rep.Replicas < 0 || rep.WriteQuorum < 0 {
		return fmt.Errorf("report: negative shard configuration")
	}
	if rep.Shards > 1 {
		if rep.Replicas < 1 || rep.Replicas > rep.Shards {
			return fmt.Errorf("report: replicas %d out of range for %d shards", rep.Replicas, rep.Shards)
		}
		if rep.WriteQuorum < 1 || rep.WriteQuorum > rep.Replicas {
			return fmt.Errorf("report: write quorum %d out of range for %d replicas", rep.WriteQuorum, rep.Replicas)
		}
	} else if rep.Replicas != 0 || rep.WriteQuorum != 0 || rep.ShardFault != "" {
		return fmt.Errorf("report: shard fields set on a single-SSP run")
	}
	switch rep.ShardFault {
	case "", "loss", "slow", "drop", "flap":
	default:
		return fmt.Errorf("report: unknown shard fault %q", rep.ShardFault)
	}
	if rep.Figure == "chaos" {
		if rep.Chaos == nil {
			return fmt.Errorf("report: chaos figure without chaos summary")
		}
		c := rep.Chaos
		if c.Workers < 1 || c.Ops <= 0 || c.Keys <= 0 {
			return fmt.Errorf("report: chaos summary with empty campaign (workers %d, ops %d, keys %d)",
				c.Workers, c.Ops, c.Keys)
		}
		if c.Severs < 0 || c.Faults < 0 || c.Redials < 0 || c.Retries < 0 ||
			c.Breaker < 0 || c.Degraded < 0 || c.Diverged < 0 {
			return fmt.Errorf("report: chaos summary with negative counter")
		}
		if c.Pass == (c.Diverged != 0) {
			return fmt.Errorf("report: chaos pass=%v inconsistent with diverged=%d", c.Pass, c.Diverged)
		}
	} else if rep.Chaos != nil {
		return fmt.Errorf("report: chaos summary on figure %q", rep.Figure)
	}
	for i, r := range rep.Rows {
		if r.Figure != rep.Figure {
			return fmt.Errorf("report row %d: figure %q != %q", i, r.Figure, rep.Figure)
		}
		if r.Op == "" || r.System == "" {
			return fmt.Errorf("report row %d: empty op or system", i)
		}
		if r.Count <= 0 {
			return fmt.Errorf("report row %d (%s/%s): count %d", i, r.System, r.Op, r.Count)
		}
		if r.TotalNs <= 0 || r.MeanNs <= 0 {
			return fmt.Errorf("report row %d (%s/%s): non-positive total/mean", i, r.System, r.Op)
		}
		if r.P50Ns > r.P95Ns || r.P95Ns > r.P99Ns {
			return fmt.Errorf("report row %d (%s/%s): quantiles not monotone (%d/%d/%d)",
				i, r.System, r.Op, r.P50Ns, r.P95Ns, r.P99Ns)
		}
		if r.NetworkNs < 0 || r.CryptoNs < 0 || r.OtherNs < 0 || r.BytesOut < 0 || r.BytesIn < 0 {
			return fmt.Errorf("report row %d (%s/%s): negative component", i, r.System, r.Op)
		}
	}
	return nil
}

// WriteReport validates rep and writes it as indented JSON.
func WriteReport(w io.Writer, rep BenchReport) error {
	if err := ValidateReport(rep); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ParseReport decodes and validates a report, for consumers and the CI
// smoke check.
func ParseReport(data []byte) (BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("report: %w", err)
	}
	return rep, ValidateReport(rep)
}

// AllocReportSchema versions the allocation-microbenchmark report
// (BENCH_alloc.json), the codec-level hot-path gate that complements the
// end-to-end latency reports above.
const AllocReportSchema = "sharoes-alloc/v1"

// AllocRow is one Go benchmark's allocation profile.
type AllocRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// MaxAllocs, when > 0, is the row's hard allocation budget:
	// validation fails if allocs_per_op exceeds it. The wire codec's
	// encode/decode hot paths commit to ≤ 2.
	MaxAllocs int64 `json:"max_allocs,omitempty"`
}

// AllocReport is the committed allocation baseline checked by
// `checkreport -alloc` and regression-gated by -alloc-old/-alloc-new.
type AllocReport struct {
	Schema string     `json:"schema"`
	Rows   []AllocRow `json:"rows"`
}

// ValidateAllocReport checks structure and enforces each row's MaxAllocs
// budget.
func ValidateAllocReport(rep AllocReport) error {
	if rep.Schema != AllocReportSchema {
		return fmt.Errorf("alloc report: schema %q, want %q", rep.Schema, AllocReportSchema)
	}
	if len(rep.Rows) == 0 {
		return fmt.Errorf("alloc report: no rows")
	}
	for i, r := range rep.Rows {
		if r.Name == "" {
			return fmt.Errorf("alloc report row %d: empty name", i)
		}
		if r.NsPerOp <= 0 || r.AllocsPerOp < 0 || r.BytesPerOp < 0 || r.MaxAllocs < 0 {
			return fmt.Errorf("alloc report row %d (%s): implausible measurements", i, r.Name)
		}
		if r.MaxAllocs > 0 && r.AllocsPerOp > r.MaxAllocs {
			return fmt.Errorf("alloc report row %d (%s): %d allocs/op exceeds budget %d",
				i, r.Name, r.AllocsPerOp, r.MaxAllocs)
		}
	}
	return nil
}

// WriteAllocReport validates rep and writes it as indented JSON.
func WriteAllocReport(w io.Writer, rep AllocReport) error {
	if err := ValidateAllocReport(rep); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ParseAllocReport decodes and validates an allocation report.
func ParseAllocReport(data []byte) (AllocReport, error) {
	var rep AllocReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("alloc report: %w", err)
	}
	return rep, ValidateAllocReport(rep)
}
