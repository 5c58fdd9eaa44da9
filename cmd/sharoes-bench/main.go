// Command sharoes-bench regenerates the tables and figures of the paper's
// evaluation (§V) over the simulated WAN testbed.
//
// Usage:
//
//	sharoes-bench -fig all                 # everything, test-sized
//	sharoes-bench -fig 9 -scale 1 -profile dsl   # full paper fidelity
//	sharoes-bench -fig 10 -sweep 0,10,20,40,60,80,100
//
// Figures: 9 (Create-and-List), 10 (Postmark vs cache), 11 (Andrew per
// phase), 12 (Andrew cumulative), 13 (operation cost breakdown),
// scheme (Scheme-1 vs Scheme-2 storage study).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharoes-bench: ")
	fig := flag.String("fig", "all", "figure to regenerate: 9, 10, 11, 12, 13, scheme, all")
	scale := flag.Int("scale", 10, "divide paper workload sizes by this factor (1 = full paper scale)")
	profile := flag.String("profile", "calibrated", "network profile: calibrated, dsl, lan")
	scheme := flag.String("scheme", "scheme2", "Sharoes layout scheme")
	sweep := flag.String("sweep", "0,20,40,60,80,100", "cache percentages for figure 10")
	reps := flag.Int("reps", 1, "average each measurement over this many runs (the paper used 10)")
	jsonPath := flag.String("json", "", "write the figure's machine-readable report ("+workload.ReportSchema+" JSON) to this path; figures 9 and 10 only")
	tracePath := flag.String("trace", "", "instead of a figure, run a traced SHAROES Create-and-List and write a Chrome trace_event JSON to this path")
	parallel := flag.Int("parallel", 1, "run Create-and-List and Postmark across this many concurrent sessions over one pipelined SSP connection (figures 9 and 10)")
	wb := flag.Bool("wb", false, "interpose the write-behind batching layer between sessions and the SSP connection")
	shards := flag.Int("shards", 1, "run over this many independent SSPs behind a consistent-hash shard router (1 = the paper's single-SSP shape)")
	replicas := flag.Int("replicas", 2, "shard replication factor R (with -shards > 1; clamped to the shard count)")
	writeQuorum := flag.Int("write-quorum", 0, "shard write quorum W (0 = majority of R)")
	hedge := flag.Duration("hedge", 0, "sharded read hedge threshold (0 = shard.Store default, negative disables hedging)")
	shardFault := flag.String("shard-fault", "", "inject a whole-shard fault after bootstrap: loss (shard refuses writes, drops reads), slow (shard delays every read), drop (shard's connections severed once mid-run) or flap (shard's link severed periodically; drop/flap imply -self-heal)")
	selfHeal := flag.Bool("self-heal", false, "build the self-healing transport stack: reconnecting per-shard clients with per-call deadlines and classified read retries")
	chaos := flag.String("chaos", "", "instead of a figure, run a chaos campaign: seed[,duration[,profile]] — e.g. 42,10s,mixed (profiles: mixed, drops, slow, writes)")
	flag.Parse()

	if *parallel > 1 && *tracePath != "" {
		log.Fatalf("-trace and -parallel are mutually exclusive (a tracer follows one operation tree at a time)")
	}
	if *chaos != "" {
		if err := runChaos(*chaos, *jsonPath); err != nil {
			log.Fatalf("chaos: %v", err)
		}
		return
	}

	var prof netsim.Profile
	switch *profile {
	case "calibrated":
		prof = workload.CalibratedProfile
	case "dsl":
		prof = netsim.DSL
	case "lan":
		prof = netsim.LAN
	default:
		log.Fatalf("unknown profile %q", *profile)
	}
	if *shards < 1 {
		log.Fatalf("-shards must be >= 1")
	}
	if *shardFault != "" && *shards <= 1 {
		log.Fatalf("-shard-fault needs -shards > 1")
	}
	// Resolve the effective shard parameters the way shard.Options does,
	// so the report records what actually ran.
	effReplicas, effQuorum := 0, 0
	if *shards > 1 {
		effReplicas = *replicas
		if effReplicas < 1 {
			effReplicas = 2
		}
		if effReplicas > *shards {
			effReplicas = *shards
		}
		effQuorum = *writeQuorum
		if effQuorum == 0 {
			effQuorum = effReplicas/2 + 1
		}
		if effQuorum > effReplicas {
			log.Fatalf("-write-quorum %d exceeds the replication factor %d", effQuorum, effReplicas)
		}
	}
	opts := workload.FigureOptions{
		Options: workload.Options{Profile: prof, CacheBytes: -1, Scheme: *scheme,
			Parallel: *parallel, WriteBehind: *wb,
			Shards: *shards, Replicas: effReplicas, WriteQuorum: *writeQuorum,
			HedgeDelay: *hedge, ShardFault: *shardFault, SelfHeal: *selfHeal},
		Scale: *scale,
		Reps:  *reps,
	}

	if *tracePath != "" {
		if err := captureTrace(*tracePath, opts); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracePath)
		return
	}
	if *jsonPath != "" && *fig != "9" && *fig != "10" {
		log.Fatalf("-json needs -fig 9 or -fig 10 (machine-readable reports exist for those figures)")
	}
	writeJSON := func(rep workload.BenchReport) error {
		if *parallel > 1 {
			rep.Parallel = *parallel
		}
		rep.WriteBehind = *wb
		rep.SelfHeal = *selfHeal || *shardFault == "drop" || *shardFault == "flap"
		if *shards > 1 {
			rep.Shards = *shards
			rep.Replicas = effReplicas
			rep.WriteQuorum = effQuorum
			rep.ShardFault = *shardFault
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := workload.WriteReport(f, rep); err != nil {
			return errors.Join(err, f.Close())
		}
		return f.Close()
	}

	mode := ""
	if *parallel > 1 {
		mode = fmt.Sprintf(" parallel=%d", *parallel)
	}
	if *wb {
		mode += " write-behind"
	}
	if *shards > 1 {
		mode += fmt.Sprintf(" shards=%d r=%d w=%d", *shards, effReplicas, effQuorum)
		if *shardFault != "" {
			mode += " fault=" + *shardFault
		}
	}
	if *selfHeal || *shardFault == "drop" || *shardFault == "flap" {
		mode += " self-heal"
	}
	fmt.Printf("sharoes-bench: profile=%s scale=1/%d scheme=%s%s\n\n", *profile, *scale, *scheme, mode)

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("9", func() error {
		rows, err := workload.RunFig9(opts)
		if err != nil {
			return err
		}
		workload.PrintFig9(os.Stdout, rows)
		if *jsonPath != "" {
			return writeJSON(workload.Fig9Report(rows, *profile, *scale, *scheme))
		}
		return nil
	})
	run("10", func() error {
		pcts, err := parseSweep(*sweep)
		if err != nil {
			return err
		}
		rows, err := workload.RunFig10(opts, pcts)
		if err != nil {
			return err
		}
		workload.PrintFig10(os.Stdout, rows)
		if *jsonPath != "" {
			return writeJSON(workload.Fig10Report(rows, *profile, *scale, *scheme))
		}
		return nil
	})
	var andrewRows []workload.Fig11Row
	run("11", func() error {
		var err error
		andrewRows, err = workload.RunFig11(opts)
		if err != nil {
			return err
		}
		workload.PrintFig11(os.Stdout, andrewRows)
		return nil
	})
	run("12", func() error {
		if andrewRows == nil {
			var err error
			andrewRows, err = workload.RunFig11(opts)
			if err != nil {
				return err
			}
		}
		workload.PrintFig12(os.Stdout, andrewRows)
		return nil
	})
	run("13", func() error {
		res, err := workload.RunFig13(opts)
		if err != nil {
			return err
		}
		workload.PrintFig13(os.Stdout, res)
		return nil
	})
	run("scheme", func() error {
		rows, err := workload.RunScheme(workload.PaperScheme)
		if err != nil {
			return err
		}
		workload.PrintScheme(os.Stdout, rows)
		return nil
	})
}

// runChaos parses a "seed[,duration[,profile]]" spec, runs the chaos
// campaign, prints the verdict and optionally writes the JSON report.
// The process exits non-zero when the campaign does not pass.
func runChaos(spec, jsonPath string) error {
	opts := workload.ChaosOptions{}
	parts := strings.Split(spec, ",")
	if len(parts) > 3 {
		return fmt.Errorf("bad chaos spec %q (want seed[,duration[,profile]])", spec)
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return fmt.Errorf("bad chaos seed %q: %w", parts[0], err)
	}
	opts.Seed = seed
	if len(parts) > 1 {
		d, err := time.ParseDuration(strings.TrimSpace(parts[1]))
		if err != nil {
			return fmt.Errorf("bad chaos duration %q: %w", parts[1], err)
		}
		opts.Duration = d
	}
	if len(parts) > 2 {
		opts.Profile = strings.TrimSpace(parts[2])
		switch opts.Profile {
		case workload.ChaosMixed, workload.ChaosDrops, workload.ChaosSlow, workload.ChaosWrite:
		default:
			return fmt.Errorf("unknown chaos profile %q", opts.Profile)
		}
	}

	res, err := workload.RunChaos(opts)
	if err != nil {
		return err
	}
	s := res.Summary
	fmt.Printf("chaos: seed=%d profile=%s workers=%d\n", s.Seed, s.Profile, s.Workers)
	fmt.Printf("  injected: severs=%d fault-windows=%d\n", s.Severs, s.Faults)
	fmt.Printf("  healed:   redials=%d retries=%d breaker-opens=%d degraded-barriers=%d\n",
		s.Redials, s.Retries, s.Breaker, s.Degraded)
	fmt.Printf("  verdict:  ops=%d keys=%d diverged=%d pass=%v\n", s.Ops, s.Keys, s.Diverged, s.Pass)
	if jsonPath != "" {
		rep := workload.ChaosReport(res)
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := workload.WriteReport(f, rep); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !s.Pass {
		return fmt.Errorf("campaign failed: %d/%d durable keys diverged", s.Diverged, s.Keys)
	}
	return nil
}

// captureTrace runs a traced SHAROES Create-and-List and exports the
// client and SSP span sets as one Chrome trace_event document; the SSP
// spans join the client traces through the wire trace IDs.
func captureTrace(path string, opts workload.FigureOptions) (err error) {
	o := opts.Options
	o.Trace = true
	sys, err := workload.Build(workload.SysSharoes, o)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sys.Close()) }()
	cfg := workload.PaperCreateList.Scaled(opts.Scale)
	if _, err := workload.CreateList(sys.FS, sys.Rec, cfg); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, sys.Tracer.Spans(), sys.ServerTracer.Spans()); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 || n > 100 {
			return nil, fmt.Errorf("bad cache percentage %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
