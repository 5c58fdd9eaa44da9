// Command bench is the repository's benchmark: four closed-loop workloads
// over a production-shaped stack, end-to-end metrics from an untraced
// pass, and a per-layer ledger from a traced pass whose layer shares sum
// to the wall time. See README.md in this directory.
//
//	go run ./bench -seed 1                       # every workload, both passes, micro rows
//	go run ./bench -workload bulk_tcp -trace 0   # one workload, end-to-end metrics, JSON last line
//	go run ./bench -workload bulk_tcp -trace 1   # one workload, per-layer metrics, JSON last line
//	go run ./bench -selfcheck                    # untraced suite twice; fails beyond the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 18

// setupRepeats is how often the untraced pass repeats the set-up;
// setup_s is the median.
const setupRepeats = 3

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload and print a JSON result as the last line (default: all)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "wall time of the timed rounds, per workload and pass")
		trace     = flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
		traceOut  = flag.String("trace-out", "", "write the traced pass's spans to this file as JSON")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice on fresh stacks and compare every end-to-end metric with its bound")
		genKeys   = flag.Bool("gen-principals", false, "regenerate bench/"+principalDir+" (run from the repository root)")
		tmpRoot   = flag.String("tmp", ".bench_build", "directory for the DiskStore microbenchmark's scratch files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *traceOut, *selfcheck, *genKeys, *tmpRoot); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, traceOut string, selfcheck, genKeys bool, tmpRoot string) error {
	if genKeys {
		per, err := genPrincipals("bench/" + principalDir)
		if err != nil {
			return err
		}
		fmt.Printf("regenerated bench/%s: %.0f ms per key\n", principalDir, per.Seconds()*1e3)
		return nil
	}
	who, err := loadPrincipals()
	if err != nil {
		return err
	}
	gogc := debug.SetGCPercent(-1)
	debug.SetGCPercent(gogc)
	fmt.Printf("sharoes bench: seed %d, %g s per pass, GOMAXPROCS=%d NumCPU=%d GOGC=%d, closed loop, SHAROES scheme2, %d KiB blocks, wire v2\n",
		seed, seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc, blockSize>>10)

	if selfcheck {
		return runSelfcheck(who, seed, seconds)
	}

	defs := workloads
	if workload != "" {
		def := workloadByName(workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		defs = []*workloadDef{def}
	}
	var micro []microRow
	if trace != 0 {
		fmt.Println("\n== micro: each layer alone ==")
		if micro, err = runMicro(who, tmpRoot, microBudget); err != nil {
			return err
		}
		report{}.withMicro(micro).print(os.Stdout, perLayerDefs(micro)[len(perLayerStatic):])
	}

	failed := 0
	var last string
	for _, def := range defs {
		fmt.Printf("\n== %s ==\n%s\n", def.name, def.why)
		var line string
		switch trace {
		case 0:
			line, err = runUntraced(def, who, seed, seconds, &failed)
		case 1:
			// Half the time untraced (tracing overhead needs the pair),
			// half traced.
			line, err = runTraced(def, who, seed, seconds/2, micro, spansPath(traceOut, def, len(defs)), &failed)
		default:
			if _, err = runUntraced(def, who, seed, seconds, &failed); err == nil {
				_, err = runTraced(def, who, seed, seconds/2, micro, spansPath(traceOut, def, len(defs)), &failed)
			}
		}
		if err != nil {
			return err
		}
		last = line
	}
	// The result line comes last on standard output even when operations
	// failed: it is what says how many.
	if workload != "" && trace >= 0 {
		fmt.Println(last)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or did not match the reference model", failed)
	}
	return nil
}

// spansPath is where a workload's spans go: traceOut itself for a single
// workload, otherwise the workload's name prefixed to its base name.
func spansPath(traceOut string, def *workloadDef, workloads int) string {
	if traceOut == "" || workloads == 1 {
		return traceOut
	}
	return filepath.Join(filepath.Dir(traceOut), def.name+"-"+filepath.Base(traceOut))
}

func describe(p *pass) {
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	fmt.Printf("%s pass: %d rounds, %d timed ops in %.2f s, machine speed %.3f, %d checks, %d failed\n",
		kind, p.rounds, p.ops, float64(p.wallNs)/1e9, p.speed, p.attempted, p.failed)
	if p.failed > 0 {
		fmt.Printf("first failure: %s\n", p.firstFailure)
	}
}

// runUntraced measures def without probes and prints its end-to-end
// metrics.
func runUntraced(def *workloadDef, who *principals, seed int64, seconds float64, failed *int) (string, error) {
	p, err := measure(def, passConfig{seed: seed, seconds: seconds, sz: fullSizing, setups: setupRepeats}, who)
	if err != nil {
		return "", err
	}
	describe(p)
	*failed += p.failed
	r := endToEndReport(p)
	fmt.Println("end-to-end:")
	r.print(os.Stdout, endToEnd)
	return r.resultLine(endToEnd, p.attempted, p.failed)
}

// runTraced measures def twice with the same seed and counts — without
// and with probes — and prints the per-layer metrics.
func runTraced(def *workloadDef, who *principals, seed int64, seconds float64, micro []microRow, traceOut string, failed *int) (string, error) {
	u, err := measure(def, passConfig{seed: seed, seconds: seconds, sz: fullSizing, setups: 1}, who)
	if err != nil {
		return "", err
	}
	describe(u)
	t, err := measure(def, passConfig{seed: seed, seconds: seconds, sz: fullSizing, setups: 1, traced: true}, who)
	if err != nil {
		return "", err
	}
	describe(t)
	*failed += u.failed + t.failed
	if traceOut != "" {
		if err := writeSpans(traceOut, def.name, t); err != nil {
			return "", err
		}
	}
	r := perLayerReport(u, t, micro)
	defs := perLayerDefs(micro)
	fmt.Println("per-layer:")
	r.print(os.Stdout, perLayerStatic)
	printLedger(t)
	return r.resultLine(defs, u.attempted+t.attempted, u.failed+t.failed)
}

// printLedger shows the closed decomposition of the traced wall time.
func printLedger(t *pass) {
	fmt.Printf("ledger of %.3f s traced wall as measured (self = share as deepest open layer; busy = any span open):\n", float64(t.wallNs)/1e9)
	for l := layer(0); l < numLayers; l++ {
		fmt.Printf("  %-12s self %6.2f %%   busy %6.2f %%\n", layerNames[l],
			100*ratio(float64(t.lg.Self[l]), float64(t.wallNs)), 100*ratio(float64(t.lg.Busy[l]), float64(t.wallNs)))
	}
	fmt.Printf("  %-12s self %6.2f %%\n", "(idle)", 100*ratio(float64(t.lg.Idle), float64(t.wallNs)))
}

// writeSpans writes the traced pass's spans and round windows.
func writeSpans(path, workload string, t *pass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type spanJSON struct {
		Layer  string `json:"layer"`
		Op     string `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Trace  uint64 `json:"trace"`
	}
	linkSpans(t.spans)
	out := make([]spanJSON, len(t.spans))
	for i, sp := range t.spans {
		out[i] = spanJSON{layerNames[sp.layer], sp.op, sp.start, sp.end, sp.id, sp.parent, sp.trace}
	}
	werr := json.NewEncoder(f).Encode(struct {
		Workload string     `json:"workload"`
		Windows  [][2]int64 `json:"windows_ns"`
		Spans    []spanJSON `json:"spans"`
	}{workload, t.windows, out})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runSelfcheck runs the untraced suite twice on freshly built stacks and
// fails if any end-to-end metric moved by more than its bound: the
// metrics that cannot hold their bound on identical code are the ones to
// demote to the per-layer table.
func runSelfcheck(who *principals, seed int64, seconds float64) error {
	var demote []string
	failed := 0
	for _, def := range workloads {
		var reps [2]report
		for i := range reps {
			p, err := measure(def, passConfig{seed: seed, seconds: seconds, sz: fullSizing, setups: setupRepeats}, who)
			if err != nil {
				return err
			}
			failed += p.failed
			reps[i] = endToEndReport(p)
		}
		fmt.Printf("\n== %s ==\n  %-30s %14s %14s %9s %7s\n", def.name, "metric", "first", "second", "worse by", "bound")
		for _, d := range endToEnd {
			a, b := reps[0][d.name].v, reps[1][d.name].v
			worse := ratio(b-a, a)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > d.bound {
				verdict = "  <-- beyond bound"
				demote = append(demote, def.name+"/"+d.name)
			}
			fmt.Printf("  %-30s %14s %14s %+8.2f%% %6.0f%%%s\n", d.name, formatValue(a), formatValue(b), 100*worse, 100*d.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or did not match the reference model", failed)
	}
	if len(demote) > 0 {
		return fmt.Errorf("metrics that did not repeat within their bound (demote them): %s", strings.Join(demote, ", "))
	}
	fmt.Println("\nevery end-to-end metric repeated within its bound")
	return nil
}
