// Package workload implements the paper's benchmark suite (§V): the
// Create-and-List microbenchmark (Fig. 9), Postmark (Fig. 10), the Andrew
// benchmark (Figs. 11 and 12), the filesystem operation-cost breakdown
// (Fig. 13), and the Scheme-1 vs Scheme-2 storage study (§III-D). Each
// workload runs against any vfs.FS, and the harness builds the five
// systems under test — SHAROES plus the four baselines — over identical
// simulated WAN links so that a run regenerates a paper figure.
package workload

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/baseline"
	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/resilience"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
)

// SystemKind names a system under test.
type SystemKind uint8

// The five implementations of the paper's evaluation, in figure order.
const (
	SysNoEncMDD SystemKind = iota + 1
	SysNoEncMD
	SysSharoes
	SysPublic
	SysPubOpt
)

// String implements fmt.Stringer with the paper's labels.
func (k SystemKind) String() string {
	switch k {
	case SysNoEncMDD:
		return "NO-ENC-MD-D"
	case SysNoEncMD:
		return "NO-ENC-MD"
	case SysSharoes:
		return "SHAROES"
	case SysPublic:
		return "PUBLIC"
	case SysPubOpt:
		return "PUB-OPT"
	default:
		return fmt.Sprintf("sys(%d)", uint8(k))
	}
}

// AllSystems is the Figure 9 lineup.
var AllSystems = []SystemKind{SysNoEncMDD, SysNoEncMD, SysSharoes, SysPublic, SysPubOpt}

// MacroSystems is the Figure 10–12 lineup (PUBLIC dropped, per the paper:
// "we do not compare the PUBLIC implementation and instead use its
// optimized version").
var MacroSystems = []SystemKind{SysNoEncMDD, SysNoEncMD, SysSharoes, SysPubOpt}

// enterprise is the shared principal fixture: RSA key generation is
// expensive, so one enterprise serves every system build.
type enterprise struct {
	reg   *keys.Registry
	users map[types.UserID]*keys.User
}

var (
	entOnce sync.Once
	ent     *enterprise
	entErr  error
)

// Enterprise returns the benchmark principal set: alice (the measuring
// user), bob (her group), carol and dave.
func Enterprise() (*keys.Registry, map[types.UserID]*keys.User, error) {
	entOnce.Do(func() {
		e := &enterprise{reg: keys.NewRegistry(), users: map[types.UserID]*keys.User{}}
		for _, id := range []types.UserID{"alice", "bob", "carol", "dave"} {
			u, err := keys.NewUser(id)
			if err != nil {
				entErr = err
				return
			}
			e.users[id] = u
			e.reg.AddUser(id, u.Public())
		}
		g, err := keys.NewGroup("eng")
		if err != nil {
			entErr = err
			return
		}
		e.reg.AddGroup("eng", g.Priv.Public())
		e.reg.AddMember("eng", "alice")
		e.reg.AddMember("eng", "bob")
		ent = e
	})
	if entErr != nil {
		return nil, nil, entErr
	}
	return ent.reg, ent.users, nil
}

// Options configures system construction.
type Options struct {
	// Profile shapes the simulated WAN. The benchmarks default to
	// CalibratedProfile; pass netsim.DSL for a full-fidelity (slow) run.
	Profile netsim.Profile
	// CacheBytes is the client cache budget (<0 unlimited, 0 disabled).
	CacheBytes int64
	// BlockSize is the data block size (default 64 KiB).
	BlockSize uint32
	// Scheme selects the Sharoes layout ("scheme1" or "scheme2",
	// default scheme2).
	Scheme string
	// LazyRevocation switches the Sharoes revocation mode.
	LazyRevocation bool
	// Trace attaches client/server tracers to the built system
	// (System.Tracer, System.ServerTracer). Client ops then produce full
	// span trees with SSP-side handler spans joined over the wire, at a
	// small constant per-op cost — off by default so benchmark numbers
	// stay comparable. A metrics registry (System.Metrics) is always
	// attached: counters are sharded atomics, far below the simulated
	// link's noise floor.
	Trace bool
	// Parallel runs the Create-and-List and Postmark workloads across
	// this many concurrent sessions sharing the system's one pipelined
	// SSP connection (<=1 serial, the paper's original single-client
	// shape). Tracing and Parallel are mutually exclusive: a tracer's
	// span stack assumes one operation tree at a time.
	Parallel int
	// WriteBehind interposes an ssp.WriteBehind coalescing layer between
	// the sessions and the SSP connection, batching puts into BatchPut
	// flushes. Over a sharded system the flushes split into one
	// per-backend lane each.
	WriteBehind bool
	// Shards builds the system over this many independent SSPs — each
	// with its own backing store, server, simulated link, and pipelined
	// connection — behind a consistent-hash shard.Store. <=1 keeps the
	// single-SSP shape.
	Shards int
	// Replicas is the shard.Store replication factor R (default 2,
	// clamped to Shards). Only meaningful with Shards > 1.
	Replicas int
	// WriteQuorum is the shard.Store write quorum W (default majority).
	WriteQuorum int
	// HedgeDelay is the sharded read hedge threshold (0 → the
	// shard.Store default, <0 disables hedging).
	HedgeDelay time.Duration
	// ShardFault injects a whole-backend fault into shard s0 after
	// bootstrap: "" none, "loss" (refuses writes, drops reads — a lost
	// shard), "slow" (every read delayed ShardFaultDelay — a straggler),
	// "drop" (every live connection to s0 severed once, mid-run), "flap"
	// (s0's link severed repeatedly, every ShardFlapEvery operations).
	// The connection scenarios imply SelfHeal: a severed link would
	// otherwise permanently kill the run's only connection to s0.
	ShardFault string
	// SelfHeal builds the self-healing transport stack: every per-shard
	// connection becomes a ReconnectClient (redial with backoff after a
	// connection-class failure, per-call deadline SelfHealTimeout) wrapped
	// in a resilience.Store that retries reads on transient errors.
	// Writes are not retried here — the filesystem's keys are not
	// content-addressed — so write fault-tolerance stays with the shard
	// quorum and the write-behind sticky-error path.
	SelfHeal bool
}

// ShardFaultDelay is the injected per-read latency of the "slow"
// ShardFault scenario — far above the default hedge threshold, so a
// hedged read wins long before the straggler answers.
const ShardFaultDelay = 20 * time.Millisecond

// ShardFlapEvery is the sever period of the "flap" ShardFault scenario:
// shard s0's link is cut on every ShardFlapEvery'th operation it serves.
const ShardFlapEvery = 25

// SelfHealTimeout is the per-call deadline the SelfHeal stack installs on
// every dialed connection — a backstop that unsticks calls whose
// responses will never arrive even when the transport does not surface
// the loss as a closed connection.
const SelfHealTimeout = time.Second

// CalibratedProfile is the default benchmark link: the paper's DSL link
// scaled 40×. The scaling compensates for ~18 years of CPU scaling between
// the paper's 1 GHz Pentium-4 and current hardware, keeping the *ratio* of
// public-key-operation time to network round-trip time in the regime the
// paper measured (see EXPERIMENTS.md for the calibration argument).
var CalibratedProfile = netsim.DSL.Scaled(40)

func (o *Options) defaults() {
	if o.Profile == (netsim.Profile{}) {
		o.Profile = CalibratedProfile
	}
	if o.BlockSize == 0 {
		o.BlockSize = 64 * 1024
	}
	if o.Scheme == "" {
		o.Scheme = "scheme2"
	}
}

// System is one built system under test: a mounted filesystem speaking to
// a fresh SSP over its own simulated link, with instrumentation attached.
type System struct {
	Kind    SystemKind
	FS      vfs.FS
	Rec     *stats.Recorder
	Store   ssp.BlobStore // the client-side (remote) store
	Backing *ssp.MemStore // the (first) SSP's backing store

	// Sharded builds (Options.Shards > 1) populate the per-shard views:
	// Backings[i] is shard i's backing store, Faults[i] its server-side
	// injection wrapper, and Shard the client-side router the sessions
	// write through.
	Backings []*ssp.MemStore
	Faults   []*ssp.FaultStore
	Shard    *shard.Store

	// Observability, populated when Options.Trace is set.
	Metrics      *obs.Registry
	Tracer       *obs.Tracer // client-side spans
	ServerTracer *obs.Tracer // SSP-side spans, joined via wire trace IDs

	mount    func() (vfs.FS, error)
	teardown []func() error
}

// NewSession mounts an additional session for the measuring user over the
// system's existing store — the parallel workloads drive one session per
// worker goroutine (a Session serializes its own operations). Extra
// sessions share the system's recorder and are not individually closed;
// they hold no resources beyond their cache.
func (s *System) NewSession() (vfs.FS, error) {
	if s.mount == nil {
		return nil, fmt.Errorf("workload: system has no session factory")
	}
	return s.mount()
}

// Close tears the system down.
func (s *System) Close() error {
	var first error
	for i := len(s.teardown) - 1; i >= 0; i-- {
		if err := s.teardown[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Build constructs a system under test: backing store, SSP server,
// simulated link, bootstrap, and a mounted session for user alice.
func Build(kind SystemKind, opts Options) (*System, error) {
	opts.defaults()
	if opts.Trace && opts.Parallel > 1 {
		return nil, fmt.Errorf("workload: Trace and Parallel are mutually exclusive")
	}
	switch opts.ShardFault {
	case "", "loss", "slow":
	case "drop", "flap":
		opts.SelfHeal = true
	default:
		return nil, fmt.Errorf("workload: unknown shard fault scenario %q", opts.ShardFault)
	}
	if opts.ShardFault != "" && opts.Shards <= 1 {
		return nil, fmt.Errorf("workload: shard fault %q needs Shards > 1", opts.ShardFault)
	}
	reg, users, err := Enterprise()
	if err != nil {
		return nil, err
	}

	sys := &System{Kind: kind}
	sys.Metrics = obs.NewRegistry()
	if opts.Trace {
		sys.Tracer = obs.NewTracer("client")
		sys.ServerTracer = obs.NewTracer("ssp")
	}
	rec := &stats.Recorder{}

	// startSSP builds one SSP: backing store, fault-injection wrapper,
	// server, simulated link, and the client-side connection — a plain
	// pipelined Client, or (SelfHeal) a ReconnectClient under a
	// read-retrying resilience.Store.
	startSSP := func() (ssp.BlobStore, error) {
		backing := ssp.NewMemStore()
		fault := ssp.NewFaultStore(backing)
		server := ssp.NewServer(fault, nil)
		lis := netsim.Listen(opts.Profile)
		server.Observe(sys.Metrics, sys.ServerTracer)
		lis.Observe(sys.Metrics)
		// Connection-fault rules on this backend sever at the transport:
		// every live conn dies, in-flight calls fail fast, and (with
		// SelfHeal) the client redials. Armed unconditionally — the hook
		// only fires when a conn-fault rule is armed on this FaultStore.
		fault.OnSever(func() { lis.SeverConns() })
		go func() {
			if err := server.Serve(lis); err != nil {
				fmt.Fprintf(os.Stderr, "workload: ssp serve: %v\n", err)
			}
		}()
		sys.Backings = append(sys.Backings, backing)
		sys.Faults = append(sys.Faults, fault)
		sys.teardown = append(sys.teardown, func() error { return server.Close() })
		if opts.SelfHeal {
			rc := ssp.NewReconnectClient(lis.Dial, ssp.ReconnectOptions{
				CallTimeout: SelfHealTimeout,
				Recorder:    rec,
				Tracer:      sys.Tracer,
				Registry:    sys.Metrics,
			})
			sys.teardown = append(sys.teardown, rc.Close)
			// Reads retry on transient classes; writes surface to the shard
			// quorum (nil content-key predicate: FS keys are mutable).
			return resilience.NewStore(rc, resilience.Policy{Registry: sys.Metrics}, nil), nil
		}
		// The tracer rides along on Dial so even the mount-path RPCs are
		// traced (nil when Options.Trace is off — tracing disabled).
		remote, err := ssp.Dial(lis.Dial, rec, sys.Tracer)
		if err != nil {
			return nil, err
		}
		remote.ObserveMetrics(sys.Metrics)
		sys.teardown = append(sys.teardown, remote.Close)
		return remote, nil
	}

	// The sessions' remote store: one pipelined connection, or a
	// shard.Store routing over Shards of them.
	var remote ssp.BlobStore
	// bootstrapStore is written by the out-of-band bulk bootstrap: the
	// backing store(s) directly, bypassing the shaped links — but routed
	// through an identical ring when sharded, so blobs land on the
	// replicas the client-side ring expects.
	var bootstrapStore ssp.BlobStore
	if opts.Shards > 1 {
		clientBks := make([]shard.Backend, opts.Shards)
		bootBks := make([]shard.Backend, opts.Shards)
		for i := 0; i < opts.Shards; i++ {
			conn, err := startSSP()
			if err != nil {
				return nil, errors.Join(err, sys.Close())
			}
			id := fmt.Sprintf("s%d", i)
			clientBks[i] = shard.Backend{ID: id, Store: conn}
			bootBks[i] = shard.Backend{ID: id, Store: sys.Backings[i]}
		}
		r := opts.Replicas
		if r == 0 {
			r = 2
		}
		if r > opts.Shards {
			r = opts.Shards
		}
		sh, err := shard.New(clientBks, shard.Options{Replicas: r,
			WriteQuorum: opts.WriteQuorum, HedgeDelay: opts.HedgeDelay,
			Registry: sys.Metrics})
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		sys.Shard = sh
		sys.teardown = append(sys.teardown, sh.Close)
		remote = sh
		// Bootstrap writes replicate synchronously (W=R) so the rings
		// start fully converged.
		boot, err := shard.New(bootBks, shard.Options{Replicas: r,
			WriteQuorum: r, HedgeDelay: -1})
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		bootstrapStore = boot
	} else {
		conn, err := startSSP()
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		remote = conn
		bootstrapStore = sys.Backings[0]
	}
	sys.Backing = sys.Backings[0]

	// The sessions' store: the remote store, optionally behind a
	// write-behind coalescing layer shared by every session so
	// cross-session read-after-write stays coherent (reads flush first).
	var store ssp.BlobStore = remote
	if opts.WriteBehind {
		store = ssp.NewWriteBehind(remote, ssp.WriteBehindOptions{Registry: sys.Metrics})
	}

	sys.Rec, sys.Store = rec, store

	// sealBootstrap finishes the out-of-band setup: it settles the
	// bootstrap router (waits out its background replica writes) and only
	// then arms the requested fault scenario on shard s0 — injection must
	// never corrupt the ground-truth state, only what the client is
	// served afterwards.
	sealBootstrap := func() error {
		if boot, ok := bootstrapStore.(*shard.Store); ok {
			if err := boot.Close(); err != nil {
				return err
			}
		}
		switch opts.ShardFault {
		case "loss":
			sys.Faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
			sys.Faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultDrop})
		case "slow":
			sys.Faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultSlow, Delay: ShardFaultDelay})
		case "drop":
			sys.Faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultConnDrop})
		case "flap":
			sys.Faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultFlap, Every: ShardFlapEvery})
		}
		return nil
	}

	const fsid = "benchfs"
	alice := users["alice"]
	switch kind {
	case SysSharoes:
		var eng layout.Engine = layout.NewScheme2(reg)
		if opts.Scheme == "scheme1" {
			eng = layout.NewScheme1(reg)
		}
		// Bootstrap in bulk directly against the backing store (the
		// migration tool runs out-of-band; only client traffic should
		// be shaped and measured).
		if err := migrate.Bootstrap(migrate.Options{Store: bootstrapStore, Registry: reg, Layout: eng,
			FSID: fsid, RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755,
			BlockSize: opts.BlockSize}); err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		if err := sealBootstrap(); err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		sys.mount = func() (vfs.FS, error) {
			return client.Mount(client.Config{Store: store, User: alice, Registry: reg,
				Layout: eng, FSID: fsid, Recorder: rec, CacheBytes: opts.CacheBytes,
				BlockSize: opts.BlockSize, LazyRevocation: opts.LazyRevocation})
		}
		fs, err := client.Mount(client.Config{Store: store, User: alice, Registry: reg,
			Layout: eng, FSID: fsid, Recorder: rec, CacheBytes: opts.CacheBytes,
			BlockSize: opts.BlockSize, LazyRevocation: opts.LazyRevocation,
			Tracer: sys.Tracer, Metrics: sys.Metrics})
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		sys.FS = fs
	default:
		mode, err := baselineMode(kind)
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		if err := baseline.Bootstrap(bootstrapStore, mode, fsid, reg, "alice", "eng", 0o755); err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		if err := sealBootstrap(); err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		sys.mount = func() (vfs.FS, error) {
			return baseline.Mount(baseline.Config{Store: store, Mode: mode, User: alice,
				Registry: reg, FSID: fsid, Recorder: rec, CacheBytes: opts.CacheBytes,
				BlockSize: opts.BlockSize})
		}
		fs, err := baseline.Mount(baseline.Config{Store: store, Mode: mode, User: alice,
			Registry: reg, FSID: fsid, Recorder: rec, CacheBytes: opts.CacheBytes,
			BlockSize: opts.BlockSize})
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		sys.FS = fs
	}
	sys.teardown = append(sys.teardown, sys.FS.Close)
	// Closing the session closes the remote store; order teardown so the
	// server goes down last.
	return sys, nil
}

func baselineMode(kind SystemKind) (baseline.Mode, error) {
	switch kind {
	case SysNoEncMDD:
		return baseline.NoEncMDD, nil
	case SysNoEncMD:
		return baseline.NoEncMD, nil
	case SysPublic:
		return baseline.Public, nil
	case SysPubOpt:
		return baseline.PubOpt, nil
	default:
		return 0, fmt.Errorf("workload: %v is not a baseline", kind)
	}
}
