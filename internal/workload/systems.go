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

	"github.com/sharoes/sharoes/internal/baseline"
	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
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
	// attached: each layer resolves its handles once and updates plain
	// atomics, far below the simulated link's noise floor.
	Trace bool
}

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
	Kind SystemKind
	FS   vfs.FS
	Rec  *stats.Recorder

	// Metrics is always attached; the tracers only when Options.Trace is
	// set.
	Metrics      *obs.Registry
	Tracer       *obs.Tracer // client-side spans
	ServerTracer *obs.Tracer // SSP-side spans, joined via wire trace IDs

	teardown []func() error
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
	reg, users, err := Enterprise()
	if err != nil {
		return nil, err
	}

	rec := &stats.Recorder{}
	sys := &System{Kind: kind, Rec: rec, Metrics: obs.NewRegistry()}
	if opts.Trace {
		sys.Tracer = obs.NewTracer("client")
		sys.ServerTracer = obs.NewTracer("ssp")
	}

	// The server serves its MemStore directly, so its borrowed-read path
	// is live, as in cmd/sharoes-ssp without -fault.
	backing := ssp.NewMemStore()
	server := ssp.NewServer(backing, nil)
	lis := netsim.Listen(opts.Profile)
	server.Observe(sys.Metrics, sys.ServerTracer)
	lis.Observe(sys.Metrics)
	go func() {
		if err := server.Serve(lis); err != nil {
			fmt.Fprintf(os.Stderr, "workload: ssp serve: %v\n", err)
		}
	}()
	sys.teardown = append(sys.teardown, server.Close)
	remote, err := ssp.Dial(lis.Dial, rec)
	if err != nil {
		return nil, errors.Join(err, sys.Close())
	}
	// Observed before the mount, so its RPCs are traced too (a nil
	// tracer when Options.Trace is off: tracing disabled).
	remote.Observe(sys.Tracer)
	remote.ObserveMetrics(sys.Metrics)
	sys.teardown = append(sys.teardown, remote.Close)

	// Bootstrap in bulk directly against the backing store: the migration
	// tool runs out-of-band, and only client traffic should be shaped and
	// measured. All five systems are the one client; they differ in the
	// layout engine alone, and a baseline's is its sealing mode.
	const fsid = "benchfs"
	var eng layout.Engine
	switch kind {
	case SysSharoes:
		eng = layout.NewScheme2(reg)
		if opts.Scheme == "scheme1" {
			eng = layout.NewScheme1(reg)
		}
	default:
		mode, err := baselineMode(kind)
		if err != nil {
			return nil, errors.Join(err, sys.Close())
		}
		eng = baseline.New(mode, reg)
	}
	if err := migrate.Bootstrap(migrate.Options{Store: backing, Registry: reg, Layout: eng,
		FSID: fsid, RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755,
		BlockSize: opts.BlockSize}); err != nil {
		return nil, errors.Join(err, sys.Close())
	}
	sys.FS, err = client.Mount(client.Config{Store: remote, User: users["alice"], Registry: reg,
		Layout: eng, FSID: fsid, Recorder: rec, CacheBytes: opts.CacheBytes,
		BlockSize: opts.BlockSize, LazyRevocation: opts.LazyRevocation,
		Tracer: sys.Tracer, Metrics: sys.Metrics})
	if err != nil {
		return nil, errors.Join(err, sys.Close())
	}
	// Closing the session closes the remote store; order teardown so the
	// server goes down last.
	sys.teardown = append(sys.teardown, sys.FS.Close)
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
