package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

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
)

const (
	fsID      = "benchfs"
	blockSize = 64 * 1024
	// callTimeout is the per-call deadline of the self-healing transport,
	// as workload.SelfHealTimeout.
	callTimeout = time.Second
)

// wanProfile is the calibrated WAN of the paper figures: the measured DSL
// link scaled 40x (RTT 1 ms), as workload.CalibratedProfile.
var wanProfile = netsim.DSL.Scaled(40)

// stackSpec declares one production-shaped stack. SSPs are shared; every
// session is a client of its own, with its own connections and
// client-side decorators, as separate client machines would be.
type stackSpec struct {
	wan         bool  // netsim calibrated WAN; otherwise loopback TCP
	backends    int   // 1, or N SSPs behind a shard.Store (R=2, W=1)
	writeBehind bool  // ssp.WriteBehind above the remote store
	selfHeal    bool  // resilience.Store over ssp.ReconnectClient per backend
	sessions    int   // concurrent alice sessions
	cacheBytes  int64 // per-session cache budget (<0 unlimited, 0 off)
}

// session is one mounted alice session with its own cost recorder, so
// crypto time is never summed across concurrent sessions.
type session struct {
	fs    *client.Session
	rec   *stats.Recorder
	store ssp.BlobStore // the top of the session's store stack
	// op is the id of the fs span the session's driver has open (traced
	// stacks only); the probe at the top of the session's stack reads it
	// to name its caller.
	op *atomic.Uint64
}

// backend is one running SSP: a MemStore under an ssp.Server behind a
// listener.
type backend struct {
	id      string
	backing *ssp.MemStore
	dial    ssp.Dialer
}

// stack is a built system: servers, links, client-side decorators and
// mounted sessions.
type stack struct {
	spec     stackSpec
	who      *principals
	eng      layout.Engine
	backends []backend
	sessions []session
	wire     *stats.Recorder // byte counts of every connection
	reg      *obs.Registry   // the layers' own counters

	// boundaries lists every seam as built (with its probe, if any), bottom
	// to top; probes the probe at each one (empty in an untraced stack),
	// indexed by layer.
	boundaries []seam
	probes     [numLayers][]*storeProbe
	tr         *tracer

	closers []func() error
}

// seam is a store with the name and layer of the boundary above it.
type seam struct {
	name  string
	layer layer
	store ssp.BlobStore
}

// probe inserts a probe above the seam when the stack is traced, and
// records the boundary either way. caller is non-nil only at the top of
// a session's stack.
func (st *stack) probe(s seam, caller *atomic.Uint64) ssp.BlobStore {
	store := s.store
	if st.tr != nil {
		var p *storeProbe
		store, p = wrapStore(store, st.tr, s.layer, caller)
		st.probes[s.layer] = append(st.probes[s.layer], p)
	}
	st.boundaries = append(st.boundaries, seam{s.name, s.layer, store})
	return store
}

// startSSP starts one SSP: a MemStore under an ssp.Server behind a netsim
// or loopback-TCP listener. No FaultStore sits above the MemStore — the
// shape of cmd/sharoes-ssp without -fault — so the Server's borrowed-read
// path is live.
func (st *stack) startSSP(id string) error {
	backing := ssp.NewMemStore()
	server := ssp.NewServer(st.probe(seam{id + "/store", layerStore, backing}, nil), nil)

	var lis net.Listener
	var dial ssp.Dialer
	if st.spec.wan {
		sim := netsim.Listen(wanProfile)
		sim.Observe(st.reg)
		lis, dial = sim, sim.Dial
	} else {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		addr := tcp.Addr().String()
		lis, dial = tcp, func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := server.Serve(lis); err != nil {
			fmt.Fprintf(os.Stderr, "bench: ssp %s serve: %v\n", id, err)
		}
	}()
	st.closers = append(st.closers, func() error {
		err := server.Close()
		<-served
		return err
	})
	st.backends = append(st.backends, backend{id, backing, dial})
	return nil
}

// connect returns a client-side store that reaches b, named under the
// session's prefix: a pipelined ssp.Client, or a self-healing
// ReconnectClient under a resilience.Store.
func (st *stack) connect(prefix string, b backend) (seam, error) {
	name := prefix + b.id
	if !st.spec.selfHeal {
		conn, err := ssp.Dial(b.dial, st.wire)
		if err != nil {
			return seam{}, err
		}
		st.closers = append(st.closers, conn.Close)
		return seam{name + "/conn", layerTransport, conn}, nil
	}
	rc := ssp.NewReconnectClient(b.dial, ssp.ReconnectOptions{
		CallTimeout: callTimeout, Recorder: st.wire, Registry: st.reg})
	st.closers = append(st.closers, rc.Close)
	// nil content-key predicate: filesystem keys are mutable, so only
	// reads retry, as in workload.Build.
	res := resilience.NewStore(st.probe(seam{name + "/conn", layerTransport, rc}, nil),
		resilience.Policy{Registry: st.reg}, nil)
	return seam{name + "/resilience", layerResilience, res}, nil
}

// clientStack assembles one session's client side over the running SSPs:
// connection(s), the shard router when there are several, write-behind.
func (st *stack) clientStack(prefix string) (seam, error) {
	var top seam
	var err error
	if len(st.backends) > 1 {
		bks := make([]shard.Backend, len(st.backends))
		for i, b := range st.backends {
			conn, err := st.connect(prefix, b)
			if err != nil {
				return seam{}, err
			}
			bks[i] = shard.Backend{ID: b.id, Store: st.probe(conn, nil)}
		}
		sh, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 1, Registry: st.reg})
		if err != nil {
			return seam{}, err
		}
		st.closers = append(st.closers, sh.Close)
		top = seam{prefix + "shard", layerShard, sh}
	} else if top, err = st.connect(prefix, st.backends[0]); err != nil {
		return seam{}, err
	}
	if st.spec.writeBehind {
		wb := ssp.NewWriteBehind(st.probe(top, nil), ssp.WriteBehindOptions{Registry: st.reg})
		st.closers = append(st.closers, wb.Close)
		top = seam{prefix + "wb", layerWB, wb}
	}
	return top, nil
}

// buildStack assembles spec from the packages' public constructors,
// bootstraps an empty filesystem and mounts the sessions. With a tracer,
// a capability-preserving probe sits at every seam.
func buildStack(spec stackSpec, who *principals, tr *tracer) (_ *stack, err error) {
	st := &stack{spec: spec, who: who, eng: layout.NewScheme2(who.reg),
		wire: &stats.Recorder{}, reg: obs.NewRegistry(), tr: tr}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.Close())
		}
	}()
	for i := 0; i < spec.backends; i++ {
		if err := st.startSSP(fmt.Sprintf("s%d", i)); err != nil {
			return nil, err
		}
	}

	// The migration tool runs out of band, straight against the backing
	// stores (through an identical ring when sharded, so blobs land where
	// the client-side ring looks for them).
	boot, closeBoot, err := st.direct()
	if err != nil {
		return nil, err
	}
	err = migrate.Bootstrap(migrate.Options{Store: boot, Registry: who.reg, Layout: st.eng,
		FSID: fsID, RootOwner: "alice", RootGroup: groupID, RootPerm: 0o755, BlockSize: blockSize})
	if err == nil {
		err = keys.PublishGroupKey(boot, who.reg, who.group)
	}
	if err = errors.Join(err, closeBoot()); err != nil {
		return nil, err
	}

	for i := 0; i < spec.sessions; i++ {
		top, err := st.clientStack(fmt.Sprintf("c%d/", i))
		if err != nil {
			return nil, err
		}
		s := session{rec: &stats.Recorder{}, op: new(atomic.Uint64)}
		s.store = st.probe(top, s.op)
		if s.fs, err = st.mount(s.store, "alice", s.rec, spec.cacheBytes); err != nil {
			return nil, err
		}
		st.sessions = append(st.sessions, s)
	}
	return st, nil
}

// direct returns a store over the backings that bypasses links and
// decorators: a MemStore, or a fully synchronous ring over all of them.
func (st *stack) direct() (ssp.BlobStore, func() error, error) {
	if len(st.backends) == 1 {
		return st.backends[0].backing, func() error { return nil }, nil
	}
	bks := make([]shard.Backend, len(st.backends))
	for i, b := range st.backends {
		bks[i] = shard.Backend{ID: b.id, Store: b.backing}
	}
	sh, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 2, HedgeDelay: -1})
	if err != nil {
		return nil, nil, err
	}
	return sh, sh.Close, nil
}

func (st *stack) mount(store ssp.BlobStore, user types.UserID, rec *stats.Recorder, cacheBytes int64) (*client.Session, error) {
	return client.Mount(client.Config{Store: store, User: st.who.users[user], Registry: st.who.reg,
		Layout: st.eng, FSID: fsID, Recorder: rec, CacheBytes: cacheBytes, BlockSize: blockSize})
}

// barrier makes every session's buffered writes durable at the SSPs; a
// no-op for a stack without write-behind.
func (st *stack) barrier() error {
	var errs []error
	for _, s := range st.sessions {
		if f, ok := s.store.(ssp.Flusher); ok {
			errs = append(errs, f.Barrier())
		}
	}
	return errors.Join(errs...)
}

// storedBytes sums what the SSPs hold.
func (st *stack) storedBytes() (int64, error) {
	var n int64
	for _, b := range st.backends {
		s, err := b.backing.Stats()
		if err != nil {
			return 0, err
		}
		n += s.Bytes
	}
	return n, nil
}

// Close tears the stack down top to bottom and waits for the servers'
// goroutines.
func (st *stack) Close() error {
	var errs []error
	for i := len(st.closers) - 1; i >= 0; i-- {
		errs = append(errs, st.closers[i]())
	}
	st.closers = nil
	return errors.Join(errs...)
}
