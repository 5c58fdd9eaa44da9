package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// regNames are the layers' own counters (obs.Registry) the report reads.
var regNames = [...]string{
	"ssp.wb.flushes", "ssp.wb.flushed_items", "ssp.wb.lane_flushes",
	"shard.get.hedged", "shard.get.hedge_won", "shard.repair",
	"shard.put.bg_fail", "shard.put.bg_shed",
	"resilience.retry.attempts", "ssp.reconnect.attempts",
	"netsim.transmits",
}

func regIndex(name string) int {
	for i, n := range regNames {
		if n == name {
			return i
		}
	}
	panic("bench: unknown registry counter " + name)
}

// probeCounts is the boundary count of one layer, summed over its probes.
type probeCounts struct{ calls, items, bytes, views, copies int64 }

// counters is a snapshot of everything the report reads as a count;
// windows carry the difference between two of them.
type counters struct {
	wireBytes              int64 // bytes out + in on every connection
	cryptoNs, cryptoOps    int64 // summed over the sessions' own recorders
	cacheHits, cacheMisses int64
	allocBytes             int64
	reg                    [len(regNames)]int64
	probe                  [numLayers]probeCounts
}

func (r *trial) snap() counters {
	var c counters
	w := r.st.wire.Snapshot()
	c.wireBytes = w.BytesOut + w.BytesIn
	for _, s := range r.st.sessions {
		snap := s.rec.Snapshot()
		c.cryptoNs += int64(snap.Crypto)
		c.cryptoOps += snap.CryptoOps
		h, m := s.fs.CacheStats()
		c.cacheHits += h
		c.cacheMisses += m
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes = int64(ms.TotalAlloc)
	for i, name := range regNames {
		c.reg[i] = r.st.reg.Counter(name).Value()
	}
	for l := range c.probe {
		for _, p := range r.st.probes[l] {
			pc := &c.probe[l]
			pc.calls += p.calls.Load()
			pc.items += p.items.Load()
			pc.bytes += p.bytes.Load()
			pc.views += p.views.Load()
			pc.copies += p.copies.Load()
		}
	}
	return c
}

func (c counters) sub(o counters) counters { return c.combine(o, -1) }
func (c counters) add(o counters) counters { return c.combine(o, +1) }

func (c counters) combine(o counters, sign int64) counters {
	c.wireBytes += sign * o.wireBytes
	c.cryptoNs += sign * o.cryptoNs
	c.cryptoOps += sign * o.cryptoOps
	c.cacheHits += sign * o.cacheHits
	c.cacheMisses += sign * o.cacheMisses
	c.allocBytes += sign * o.allocBytes
	for i := range c.reg {
		c.reg[i] += sign * o.reg[i]
	}
	for l := range c.probe {
		c.probe[l].calls += sign * o.probe[l].calls
		c.probe[l].items += sign * o.probe[l].items
		c.probe[l].bytes += sign * o.probe[l].bytes
		c.probe[l].views += sign * o.probe[l].views
		c.probe[l].copies += sign * o.probe[l].copies
	}
	return c
}

// passConfig parameterises one measuring pass over one workload.
type passConfig struct {
	seed    int64
	seconds float64 // timed rounds run until this much wall time is used
	sz      sizing
	setups  int  // how many times the set-up is repeated (the last stack is measured)
	traced  bool // probes at every seam
}

// pass is everything one measuring pass observed.
type pass struct {
	def     *workloadDef
	traced  bool
	setupS  []float64
	rounds  int
	samples [numOps][]int64 // per-op latencies of the timed rounds, ns
	opsPerS []float64       // per round
	mbps    map[string][]float64
	windows [][2]int64
	wallNs  int64 // summed window lengths, by the harness clock
	// speed is the machine's speed during the pass relative to the
	// reference machine (median of the calibration slices); 1 on the WAN
	// workloads, which are not calibrated. See calib.go.
	speed    float64
	ops      int // timed ops
	total    counters
	sessions int

	storedBytes, userBytes int64
	attempted, failed      int
	firstFailure           string

	spans []span
	lg    ledger
}

// measure builds the workload's stack cfg.setups times (set-up includes
// the discarded warm-up round: everything before the first timed op),
// runs timed rounds on the last one, verifies the outputs and tears the
// stack down.
func measure(def *workloadDef, cfg passConfig, who *principals) (_ *pass, err error) {
	p := &pass{def: def, traced: cfg.traced, mbps: map[string][]float64{}, speed: 1}
	calibrated := !def.spec(cfg.sz).wan
	var speeds []float64
	calibrate := func() {
		if calibrated {
			speeds = append(speeds, machineSpeed())
		}
	}
	var r *trial
	var tr *tracer
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := r.st.Close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", def.name, err)
			}
		}
		if cfg.traced {
			tr = newTracer()
		}
		start := time.Now()
		if r, err = newTrial(def, cfg.sz, who, cfg.seed, tr); err != nil {
			return nil, err
		}
		_, rerr := def.round(r, 0)
		r.settle(false)
		if rerr == nil && r.failed > 0 {
			rerr = errors.New(r.firstFailure)
		}
		if rerr != nil {
			return nil, errors.Join(fmt.Errorf("%s: warm-up round: %w", def.name, rerr), r.st.Close())
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		calibrate()
	}
	defer func() {
		if cerr := r.st.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s: close: %w", def.name, cerr)
		}
	}()
	p.sessions = len(r.drivers)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	var last time.Duration
	for n := 1; ; n++ {
		// Stop when the next round would overshoot the budget by more
		// than it undershoots; always measure at least three.
		if n > 3 && time.Since(began)+last/2 >= budget {
			break
		}
		roundStart := time.Now()
		wins, rerr := def.round(r, n)
		last = time.Since(roundStart)
		calibrate()
		if rerr != nil {
			r.fail("round %d: %v", n, rerr)
		}
		ops := 0
		for _, d := range r.drivers {
			ops += len(d.log)
		}
		r.drain(&p.samples)
		r.settle(true)
		var wall int64
		for _, w := range wins {
			wall += w.end - w.start
			p.windows = append(p.windows, [2]int64{w.start, w.end})
			p.total = p.total.add(w.delta)
			if w.userBytes > 0 {
				p.mbps[w.name] = append(p.mbps[w.name],
					float64(w.userBytes)/(1<<20)/(float64(w.end-w.start)/1e9))
			}
		}
		p.wallNs += wall
		p.ops += ops
		p.opsPerS = append(p.opsPerS, float64(ops)/(float64(wall)/1e9))
		p.rounds++
	}

	if len(speeds) > 0 {
		p.speed = median(speeds)
	}

	if p.userBytes, err = r.verify(); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", def.name, err)
	}
	if p.storedBytes, err = r.st.storedBytes(); err != nil {
		return nil, fmt.Errorf("%s: stats: %w", def.name, err)
	}
	p.attempted, p.failed, p.firstFailure = r.attempted, r.failed, r.firstFailure
	if tr != nil {
		p.spans = tr.snapshot()
		p.lg = buildLedger(p.spans, p.windows)
	}
	return p, nil
}

// --- statistics ---------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianMs is the median of latencies given in ns, in ms.
func medianMs(ns []int64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v) / 1e6
	}
	return median(f)
}

// tail returns the highest of p99.9/p99/p95/p90 that still has at least
// ten samples beyond it, in ms, with the percentile chosen.
func tail(ns []int64) (ms float64, pct float64) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, q := range []float64{99.9, 99, 95, 90} {
		beyond := int(math.Floor(float64(len(s)) * (100 - q) / 100))
		if beyond >= 10 {
			return float64(s[len(s)-1-beyond]) / 1e6, q
		}
	}
	return 0, 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
