// Package netsim simulates wide-area network links in-process.
//
// The paper's evaluation ran the SSP in Atlanta and the client in
// Birmingham, AL over a home DSL connection measured at 850 Kbit/s up and
// 350 Kbit/s down. netsim reproduces that testbed as an in-memory
// net.Conn pair shaped by per-direction serialization delay (a transmit
// virtual clock advanced len*8/bps per write, so concurrent in-flight
// frames share the link like a real FIFO serializer without blocking the
// writer) plus one-way propagation latency. Absolute numbers
// naturally differ from the 2008 hardware, but the dominance of network
// time over crypto time — the property every figure in the paper rests
// on — is preserved.
package netsim

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
)

// Profile describes a link.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// UpBps is client→SSP bandwidth in bits per second.
	UpBps int64
	// DownBps is SSP→client bandwidth in bits per second.
	DownBps int64
}

// Predefined profiles.
var (
	// DSL is the paper's measured home DSL link: 850 Kbit/s up,
	// 350 Kbit/s down, ~40 ms RTT for the ~150-mile path.
	DSL = Profile{Name: "dsl", Latency: 20 * time.Millisecond, UpBps: 850_000, DownBps: 350_000}

	// LAN approximates a local gigabit network.
	LAN = Profile{Name: "lan", Latency: 200 * time.Microsecond, UpBps: 1_000_000_000, DownBps: 1_000_000_000}

	// Unlimited applies no shaping at all; useful for unit tests.
	Unlimited = Profile{Name: "unlimited"}
)

// Scaled returns a profile whose delays are divided — and bandwidth
// multiplied — by factor. Benchmarks run under DSL.Scaled(40) by default:
// the factor compensates for CPU scaling since the paper's 2008 hardware,
// keeping the ratio of public-key-operation time to round-trip time in
// the regime the paper measured (see EXPERIMENTS.md).
func (p Profile) Scaled(factor float64) Profile {
	if factor <= 0 {
		return p
	}
	out := p
	out.Name = fmt.Sprintf("%s/%g", p.Name, factor)
	out.Latency = time.Duration(float64(p.Latency) / factor)
	if p.UpBps > 0 {
		out.UpBps = int64(float64(p.UpBps) * factor)
	}
	if p.DownBps > 0 {
		out.DownBps = int64(float64(p.DownBps) * factor)
	}
	return out
}

// TransferTime returns the modelled one-direction time to move n bytes:
// serialization at bps plus propagation latency. A bps of zero means
// unlimited bandwidth.
func TransferTime(n int, bps int64, latency time.Duration) time.Duration {
	d := latency
	if bps > 0 {
		d += time.Duration(float64(n*8) / float64(bps) * float64(time.Second))
	}
	return d
}

type packet struct {
	data      []byte
	deliverAt time.Time
}

// pipeDir is one direction of a shaped pipe.
type pipeDir struct {
	ch      chan packet
	latency time.Duration
	bps     int64

	// vmu guards vclock, the transmit virtual clock: the instant the
	// link's serializer is next free. Writes advance it by their modelled
	// serialization time and stamp deliverAt from it instead of sleeping
	// in line. Sleeping in write() would charge the whole serialization
	// delay to whichever goroutine holds the connection's write path —
	// with a coarse kernel tick every per-frame sleep rounds up to a full
	// tick, so a pipelined connection's writer would serialize ~1 ms per
	// frame that the model prices in microseconds. The reader alone
	// sleeps, until deliverAt, where queued packets amortize the tick.
	vmu    sync.Mutex
	vclock time.Time

	mu          sync.Mutex
	writeClosed bool
	closed      chan struct{} // closed when the writer side closes

	// bytes counts payload bytes shaped through this direction; nil-safe
	// no-op when the owning listener has no registry attached.
	bytes *obs.Counter
	// transmits counts write() calls — one per flushed frame or frame
	// pack, independent of size. The wire-v2 batching work is visible
	// here: a pipelined burst that used to cost one transmit per frame
	// coalesces into one transmit per pack.
	transmits *obs.Counter

	// reader-side state; accessed only by the reading conn
	rmu  sync.Mutex
	rbuf []byte
}

func newPipeDir(latency time.Duration, bps int64) *pipeDir {
	return &pipeDir{
		ch:      make(chan packet, 1024),
		latency: latency,
		bps:     bps,
		closed:  make(chan struct{}),
	}
}

// maxSegment bounds per-write serialization sleeps so that large writes
// interleave realistically with the reader.
const maxSegment = 16 * 1024

func (d *pipeDir) write(b []byte) (int, error) {
	d.transmits.Inc()
	total := 0
	for len(b) > 0 {
		seg := b
		if len(seg) > maxSegment {
			seg = seg[:maxSegment]
		}
		b = b[len(seg):]
		deliverAt := time.Now().Add(d.latency)
		if d.bps > 0 {
			ser := time.Duration(float64(len(seg)*8) / float64(d.bps) * float64(time.Second))
			d.vmu.Lock()
			if now := time.Now(); d.vclock.Before(now) {
				d.vclock = now
			}
			d.vclock = d.vclock.Add(ser)
			deliverAt = d.vclock.Add(d.latency)
			d.vmu.Unlock()
		}
		data := make([]byte, len(seg))
		copy(data, seg)
		pkt := packet{data: data, deliverAt: deliverAt}
		// Check for closure first: when both cases are ready, select
		// picks randomly, and a write after close must fail.
		select {
		case <-d.closed:
			return total, net.ErrClosed
		default:
		}
		select {
		case d.ch <- pkt:
			total += len(seg)
			d.bytes.Add(int64(len(seg)))
		case <-d.closed:
			return total, net.ErrClosed
		}
	}
	return total, nil
}

func (d *pipeDir) read(b []byte) (int, error) {
	d.rmu.Lock()
	defer d.rmu.Unlock()
	if len(d.rbuf) > 0 {
		n := copy(b, d.rbuf)
		d.rbuf = d.rbuf[n:]
		return n, nil
	}
	for {
		select {
		case pkt := <-d.ch:
			if wait := time.Until(pkt.deliverAt); wait > 0 {
				time.Sleep(wait)
			}
			n := copy(b, pkt.data)
			d.rbuf = pkt.data[n:]
			return n, nil
		case <-d.closed:
			// Drain anything already queued before reporting EOF.
			select {
			case pkt := <-d.ch:
				if wait := time.Until(pkt.deliverAt); wait > 0 {
					time.Sleep(wait)
				}
				n := copy(b, pkt.data)
				d.rbuf = pkt.data[n:]
				return n, nil
			default:
				return 0, io.EOF
			}
		}
	}
}

func (d *pipeDir) closeWrite() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.writeClosed {
		d.writeClosed = true
		close(d.closed)
	}
}

// Conn is one endpoint of a shaped pipe. It implements net.Conn.
// Deadlines are accepted but not enforced: nothing in the tree sets one.
// The ssp reconnect wrapper's per-call deadline is a timer that closes
// the connection (ssp.ErrDeadline), the server ends a connection by
// closing it (a sever, a drain, a shutdown), and the simulator's sleeps
// are bounded by construction.
type Conn struct {
	name string
	out  *pipeDir // direction we write to
	in   *pipeDir // direction we read from
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) { return c.in.read(b) }

// Write implements net.Conn.
func (c *Conn) Write(b []byte) (int, error) { return c.out.write(b) }

// Close implements net.Conn. It closes both directions: the peer's reads
// see EOF after draining, our own blocked reads return, and writes from
// either end fail. Closing either end is therefore the same event on the
// link, a cut; a second Close is a no-op.
func (c *Conn) Close() error {
	c.out.closeWrite()
	c.in.closeWrite()
	return nil
}

// simAddr is the net.Addr of a simulated endpoint.
type simAddr string

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return string(a) }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return simAddr(c.name) }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return simAddr("peer-of-" + c.name) }

// SetDeadline implements net.Conn (accepted, not enforced).
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn (accepted, not enforced).
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn (accepted, not enforced).
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// Pipe returns a connected, shaped pair: the client end and the SSP end.
// Bytes written by the client are shaped at p.UpBps; bytes written by the
// server at p.DownBps; both directions add p.Latency propagation delay.
func Pipe(p Profile) (client, server *Conn) {
	up := newPipeDir(p.Latency, p.UpBps)
	down := newPipeDir(p.Latency, p.DownBps)
	client = &Conn{name: "client", out: up, in: down}
	server = &Conn{name: "ssp", out: down, in: up}
	return client, server
}

// Listener accepts simulated connections; it lets an ssp.Server serve
// shaped in-process traffic exactly as it would serve a real net.Listener.
// It keeps no record of the connections it hands out: cutting a link is
// the server's to do (ssp.Server.SeverConns), as over real sockets.
type Listener struct {
	profile Profile
	ch      chan net.Conn
	mu      sync.Mutex
	closed  bool
	done    chan struct{}
	reg     *obs.Registry
}

// Observe attaches a metrics registry (nil detaches). Subsequent dials
// count under netsim.dials, the payload bytes shaped through their pipes
// under netsim.bytes_up / netsim.bytes_down, and write calls (frames or
// frame packs — the batching efficiency signal) under netsim.transmits.
// Call before handing the listener to concurrent dialers.
func (l *Listener) Observe(reg *obs.Registry) { l.reg = reg }

// Listen creates a Listener whose connections are shaped by p.
func Listen(p Profile) *Listener {
	return &Listener{profile: p, ch: make(chan net.Conn, 16), done: make(chan struct{})}
}

// Dial creates a new shaped connection to the listener and returns the
// client end.
func (l *Listener) Dial() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	client, server := Pipe(l.profile)
	if l.reg != nil {
		l.reg.Counter("netsim.dials").Inc()
		client.out.bytes = l.reg.Counter("netsim.bytes_up")
		client.in.bytes = l.reg.Counter("netsim.bytes_down")
		transmits := l.reg.Counter("netsim.transmits")
		client.out.transmits = transmits
		client.in.transmits = transmits
	}
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return simAddr("netsim:" + l.profile.Name) }
