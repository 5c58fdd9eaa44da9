package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/resilience"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// The chaos campaign drives the full self-healing transport stack —
// write-behind over classified retries over a replicated shard.Store over
// reconnecting clients over fault-injecting SSPs — while a seeded
// scheduler cuts connections, arms slow and write-refusing windows, and
// flaps links. It then proves three properties: every key whose barrier
// acked is readable with its exact value once faults clear (model
// equivalence / no acked-write loss), every surfaced error belongs to a
// classified errors.Is-matchable family (no anonymous failures), and the
// stack winds down to its pre-campaign goroutine count (no leaks).

// Chaos profiles select the injection mix.
const (
	ChaosMixed = "mixed"  // everything below, uniformly
	ChaosDrops = "drops"  // severs and flap windows only
	ChaosSlow  = "slow"   // straggler windows only
	ChaosWrite = "writes" // write-refusal windows, sometimes quorum-wide
)

// ChaosOptions configures a campaign. Zero values take the defaults
// noted; the zero Profile is ChaosMixed.
type ChaosOptions struct {
	Seed     int64
	Duration time.Duration // default 3s
	Profile  string        // injection mix (default ChaosMixed)
	Workers  int           // concurrent writers (default 4)
	Shards   int           // backend SSPs (default 3, min 2)
}

// ChaosResult is a finished campaign: the verdict summary and the metric
// registry of the whole stack, client-side latency histograms included.
type ChaosResult struct {
	Summary  ChaosSummary
	Registry *obs.Registry
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

func (o *ChaosOptions) defaults() {
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.Profile == "" {
		o.Profile = ChaosMixed
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Shards <= 0 {
		o.Shards = 3
	}
	if o.Shards < 2 {
		o.Shards = 2
	}
}

// chaosNS is the namespace campaign traffic lives in.
const chaosNS = wire.NSData

// chaosVal derives the deterministic value of a campaign key: every
// writer produces identical bytes for a given key, which both makes the
// keys content-addressed (so the retry layer may vouch Put idempotent)
// and lets the convergence check recompute expected values from key
// names alone.
func chaosVal(key string) []byte {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	out := make([]byte, 64)
	for i := range out {
		h += 0x9e3779b97f4a7c15
		z := h
		z ^= z >> 30
		z *= 0xbf58476d1ce4e9b5
		z ^= z >> 27
		out[i] = byte(z)
	}
	return out
}

// chaosClassified reports whether a campaign-surfaced error belongs to a
// sanctioned, errors.Is-matchable failure family. Anything else is an
// anonymous failure and fails the campaign.
func chaosClassified(err error) bool {
	return resilience.Transient(err) ||
		errors.Is(err, shard.ErrQuorum) ||
		errors.Is(err, wire.ErrRemote) ||
		errors.Is(err, ssp.ErrReconnectFailed)
}

// chaosBackend is one SSP of the campaign stack.
type chaosBackend struct {
	fault  *ssp.FaultStore
	server *ssp.Server
	lis    *netsim.Listener
	rc     *ssp.ReconnectClient
}

// RunChaos executes one fixed-seed chaos campaign and returns its
// verdict. A non-nil error means the harness itself failed (a build
// error, an unclassified error, a leak); a divergent key count is
// reported in the summary with Pass=false, not as an error, so callers
// can render the report before deciding to fail.
func RunChaos(opts ChaosOptions) (*ChaosResult, error) {
	opts.defaults()
	baseGoroutines := runtime.NumGoroutine()
	reg := obs.NewRegistry()

	// Fast links: the campaign stresses failure paths, not bandwidth.
	profile := netsim.DSL.Scaled(400)
	backends := make([]*chaosBackend, opts.Shards)
	shardBks := make([]shard.Backend, opts.Shards)
	for i := range backends {
		b := &chaosBackend{}
		b.fault = ssp.NewFaultStore(ssp.NewMemStore())
		b.server = ssp.NewServer(b.fault, nil)
		b.server.Observe(reg, nil)
		b.lis = netsim.Listen(profile)
		b.lis.Observe(reg)
		lis := b.lis
		b.fault.OnSever(func() { lis.SeverConns() })
		go func(srv *ssp.Server, l *netsim.Listener) {
			// Serve returns nil on Close; any other exit is a harness bug.
			if err := srv.Serve(l); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: ssp serve: %v\n", err)
			}
		}(b.server, b.lis)
		b.rc = ssp.NewReconnectClient(b.lis.Dial, ssp.ReconnectOptions{
			CallTimeout: 150 * time.Millisecond,
			MaxRedials:  -1, // the listener stays up; give-up would be noise
			Registry:    reg,
		})
		backends[i] = b
		shardBks[i] = shard.Backend{ID: fmt.Sprintf("s%d", i), Store: b.rc}
	}
	sh, err := shard.New(shardBks, shard.Options{
		Replicas:         2,
		WriteQuorum:      1,
		HedgeDelay:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
		Registry:         reg,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: build shard store: %w", err)
	}
	// Campaign keys are content-addressed by construction (chaosVal), so
	// the retry layer may vouch every Put idempotent.
	res := resilience.NewStore(sh, resilience.Policy{Registry: reg},
		func(wire.NS, string) bool { return true })
	// One write-behind lane per worker: a WriteBehind surfaces a flush
	// failure exactly once, to whichever caller barriers first, so a
	// shared instance would let worker A's barrier consume the error that
	// voided worker B's window — and B would then wrongly ack it. Private
	// instances give each worker exact attribution; they still share the
	// retry/shard/reconnect stack below.
	wbs := make([]*ssp.WriteBehind, opts.Workers)
	for i := range wbs {
		wbs[i] = ssp.NewWriteBehind(res, ssp.WriteBehindOptions{Registry: reg})
	}

	putLat := reg.Histogram("chaos.put.ns")
	getLat := reg.Histogram("chaos.get.ns")
	barLat := reg.Histogram("chaos.barrier.ns")

	var (
		mu         sync.Mutex
		durable    []string // keys whose barrier acked
		violations []string // unclassified errors (campaign failures)
		ops        int64
		degraded   int64
		faults     int64
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		if len(violations) < 16 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	deadline := time.Now().Add(opts.Duration)
	var wg sync.WaitGroup

	// Writers: content-addressed puts in barriered windows, with reads of
	// already-durable keys mixed in.
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wb := wbs[w]
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			var window []string
			var localOps int64
			flushWindow := func() {
				start := time.Now()
				err := wb.Barrier()
				barLat.Observe(time.Since(start))
				localOps++
				if err == nil {
					mu.Lock()
					durable = append(durable, window...)
					mu.Unlock()
				} else if chaosClassified(err) {
					mu.Lock()
					degraded++
					mu.Unlock()
				} else {
					violate("worker %d: unclassified barrier error: %v", w, err)
				}
				window = window[:0]
			}
			for seq := 0; time.Now().Before(deadline); seq++ {
				key := fmt.Sprintf("c/%d/%06d", w, seq)
				start := time.Now()
				err := wb.Put(chaosNS, key, chaosVal(key))
				putLat.Observe(time.Since(start))
				localOps++
				switch {
				case err == nil:
					window = append(window, key)
				case chaosClassified(err):
					// A put surfacing a (classified) sticky flush error also
					// voids the unbarriered window: those keys never acked.
					mu.Lock()
					degraded++
					mu.Unlock()
					window = window[:0]
				default:
					violate("worker %d: unclassified put error: %v", w, err)
				}
				if len(window) >= 16 {
					flushWindow()
				}
				if seq%8 == 3 {
					mu.Lock()
					var key string
					if len(durable) > 0 {
						key = durable[rng.Intn(len(durable))]
					}
					mu.Unlock()
					if key != "" {
						// Durable keys are flushed by definition; read the
						// shared stack directly below the write-behind lanes.
						start := time.Now()
						v, err := res.Get(chaosNS, key)
						getLat.Observe(time.Since(start))
						localOps++
						switch {
						case err == nil:
							if string(v) != string(chaosVal(key)) {
								violate("worker %d: mid-campaign corrupt read of %s", w, key)
							}
						case chaosClassified(err):
							// Transient unavailability is fine mid-campaign;
							// convergence is checked after faults clear.
						default:
							violate("worker %d: unclassified get error: %v", w, err)
						}
					}
				}
			}
			flushWindow()
			mu.Lock()
			ops += localOps
			mu.Unlock()
		}(w)
	}

	// The scheduler: one goroutine arming sequential fault windows from
	// the campaign seed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x5eed))
		window := func(b *chaosBackend, rule ssp.FaultRule, d time.Duration) {
			b.fault.AddRule(rule)
			mu.Lock()
			faults++
			mu.Unlock()
			time.Sleep(d)
			b.fault.ClearRules()
		}
		for time.Now().Before(deadline) {
			time.Sleep(time.Duration(2+rng.Intn(7)) * time.Millisecond)
			b := backends[rng.Intn(len(backends))]
			dur := time.Duration(20+rng.Intn(40)) * time.Millisecond
			action := opts.Profile
			if action == ChaosMixed {
				action = []string{ChaosDrops, ChaosSlow, ChaosWrite}[rng.Intn(3)]
			}
			switch action {
			case ChaosDrops:
				if rng.Intn(10) < 7 {
					b.lis.SeverConns()
				} else {
					window(b, ssp.FaultRule{Mode: ssp.FaultFlap, Every: 5}, dur)
				}
			case ChaosSlow:
				delay := time.Duration(2+rng.Intn(6)) * time.Millisecond
				window(b, ssp.FaultRule{Mode: ssp.FaultSlow, Delay: delay}, dur)
			case ChaosWrite:
				if rng.Intn(5) == 0 {
					// Quorum-wide refusal: every shard rejects writes, so
					// flushes fail and the sticky-error path must surface.
					for _, ab := range backends {
						ab.fault.AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
					}
					mu.Lock()
					faults++
					mu.Unlock()
					time.Sleep(dur / 2)
					for _, ab := range backends {
						ab.fault.ClearRules()
					}
				} else {
					window(b, ssp.FaultRule{Mode: ssp.FaultWriteErr}, dur)
				}
			}
		}
		for _, b := range backends {
			b.fault.ClearRules()
		}
	}()

	wg.Wait()
	for _, b := range backends {
		b.fault.ClearRules()
	}

	// Drain: with faults cleared, barriers must go clean within a bounded
	// number of attempts — a sticky error that never resolves means the
	// stack cannot heal.
	for w, wb := range wbs {
		drained := false
		for i := 0; i < 10; i++ {
			err := wb.Barrier()
			if err == nil {
				drained = true
				break
			}
			if !chaosClassified(err) {
				violate("drain lane %d: unclassified barrier error: %v", w, err)
			}
			mu.Lock()
			degraded++
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
		}
		if !drained {
			violate("drain lane %d: barrier still failing after 10 attempts", w)
		}
	}

	// Convergence: every durable (barrier-acked) key must read back with
	// its exact value now that the faults are gone. The check is batched
	// and parallel — a campaign produces tens of thousands of keys, and a
	// serial per-key walk would dwarf the campaign itself.
	diverged := 0
	chunks := make(chan []string, 16)
	var vwg sync.WaitGroup
	for i := 0; i < 8; i++ {
		vwg.Add(1)
		go func() {
			defer vwg.Done()
			for chunk := range chunks {
				req := make([]wire.KV, len(chunk))
				for j, k := range chunk {
					req[j] = wire.KV{NS: chaosNS, Key: k}
				}
				var items []wire.KV
				var err error
				for attempt := 0; attempt < 3; attempt++ {
					items, err = res.BatchGet(req)
					if err == nil || !chaosClassified(err) {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				bad := 0
				if err != nil {
					// Faults are cleared; a persistent failure here means the
					// chunk's keys cannot be proven converged.
					bad = len(chunk)
					if !chaosClassified(err) {
						violate("verify: unclassified error: %v", err)
					}
				} else {
					got := make(map[string][]byte, len(items))
					for _, it := range items {
						got[it.Key] = it.Val
					}
					for _, k := range chunk {
						if v, ok := got[k]; !ok || string(v) != string(chaosVal(k)) {
							bad++
						}
					}
				}
				if bad > 0 {
					mu.Lock()
					diverged += bad
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < len(durable); i += 64 {
		end := i + 64
		if end > len(durable) {
			end = len(durable)
		}
		chunks <- durable[i:end]
	}
	close(chunks)
	vwg.Wait()

	// Teardown, then require the goroutine count to settle back: the
	// redial loops, drain tasks, and handlers must all have exits.
	var closeErr error
	record := func(err error) {
		if err != nil && closeErr == nil {
			closeErr = err
		}
	}
	for _, wb := range wbs {
		record(wb.Close())
	}
	record(sh.Close())
	for _, b := range backends {
		record(b.rc.Close())
		record(b.server.Close())
	}
	if closeErr != nil && !chaosClassified(closeErr) {
		violate("teardown: unclassified close error: %v", closeErr)
	}
	leaked := -1
	for i := 0; i < 100; i++ {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			leaked = 0
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leaked != 0 {
		violate("goroutine leak: %d live after teardown, started with %d",
			runtime.NumGoroutine(), baseGoroutines)
	}

	if len(violations) > 0 {
		return nil, fmt.Errorf("chaos: campaign violations: %v", violations)
	}

	snap := reg.Snapshot()
	out := &ChaosResult{
		Registry: reg,
		Summary: ChaosSummary{
			Seed:     opts.Seed,
			Profile:  opts.Profile,
			Workers:  opts.Workers,
			Ops:      ops,
			Severs:   snap.Counters["netsim.severs"],
			Faults:   faults,
			Redials:  snap.Counters["ssp.reconnect.success"],
			Retries:  snap.Counters["resilience.retry.attempts"],
			Breaker:  snap.Counters["shard.breaker.open"],
			Degraded: degraded,
			Keys:     len(durable),
			Diverged: diverged,
			Pass:     diverged == 0,
		},
	}
	return out, nil
}
