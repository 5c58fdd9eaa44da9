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
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/workload"
)

// figures are the values -fig accepts.
var figures = []string{"9", "10", "11", "12", "13", "scheme", "all"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharoes-bench: ")
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, ", "))
	scale := flag.Int("scale", 10, "divide paper workload sizes by this factor (1 = full paper scale)")
	profile := flag.String("profile", "calibrated", "network profile: calibrated, dsl, lan")
	scheme := flag.String("scheme", "scheme2", "Sharoes layout scheme")
	sweep := flag.String("sweep", "0,20,40,60,80,100", "cache percentages for figure 10")
	reps := flag.Int("reps", 1, "average each measurement over this many runs (the paper used 10)")
	tracePath := flag.String("trace", "", "instead of a figure, run a traced SHAROES Create-and-List and write a Chrome trace_event JSON to this path")
	chaos := flag.String("chaos", "", "instead of a figure, run a chaos campaign: seed[,duration[,profile]] — e.g. 42,10s,mixed (profiles: mixed, drops, slow, writes)")
	flag.Parse()

	if *chaos != "" {
		if err := runChaos(*chaos); err != nil {
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
	opts := workload.FigureOptions{
		Options: workload.Options{Profile: prof, CacheBytes: -1, Scheme: *scheme},
		Scale:   *scale,
		Reps:    *reps,
	}

	if *tracePath != "" {
		if err := captureTrace(*tracePath, opts); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracePath)
		return
	}
	if !slices.Contains(figures, *fig) {
		log.Fatalf("unknown figure %q (valid: %s)", *fig, strings.Join(figures, ", "))
	}
	fmt.Printf("sharoes-bench: profile=%s scale=1/%d scheme=%s\n\n", *profile, *scale, *scheme)

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
// campaign and prints the verdict. The process exits non-zero when the
// campaign does not pass.
func runChaos(spec string) error {
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
