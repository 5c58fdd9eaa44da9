package ssp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/wire"
)

// ErrReconnectFailed is the sticky give-up error of a ReconnectClient
// whose redial budget is exhausted: once MaxRedials consecutive dial
// attempts fail, every subsequent call fails fast wrapping this sentinel
// (and the last dial error) until the client is closed.
var ErrReconnectFailed = errors.New("ssp: reconnect budget exhausted")

// ReconnectOptions configures a ReconnectClient. Zero values take the
// defaults noted on each field.
type ReconnectOptions struct {
	// MaxRedials is the consecutive-dial-failure budget before the client
	// goes sticky with ErrReconnectFailed (default 8; <0 never gives up).
	MaxRedials int
	// BaseDelay seeds the exponential backoff between redials (default
	// 1ms); MaxDelay caps it (default 250ms). The actual sleep is
	// full-jitter: uniform in [0, min(MaxDelay, BaseDelay<<attempt)).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// CallTimeout is installed on every dialed client via SetCallTimeout
	// (0 = no per-call deadline).
	CallTimeout time.Duration
	// Rand supplies jitter in [0, 1); nil uses an internal splitmix64
	// stream (math/rand is banned outside internal/workload). Sleep is
	// injectable for tests; nil uses time.Sleep.
	Rand  func() float64
	Sleep func(time.Duration)
	// Recorder and Tracer are forwarded to each dialed Client; Registry
	// additionally receives the ssp.reconnect.* counters and is bound to
	// each client's ObserveMetrics.
	Recorder *stats.Recorder
	Tracer   *obs.Tracer
	Registry *obs.Registry
}

func (o *ReconnectOptions) defaults() {
	if o.MaxRedials == 0 {
		o.MaxRedials = 8
	}
	if o.BaseDelay == 0 {
		o.BaseDelay = time.Millisecond
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 250 * time.Millisecond
	}
	if o.Rand == nil {
		o.Rand = newJitterRand()
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// ReconnectClient is a self-healing BlobStore over a Dialer: it lazily
// dials a pipelined Client and, when a call fails with a connection-class
// error (ErrShutdown, ErrDeadline, EOF, a closed or timed-out conn), it
// discards the broken client so the next call redials — with exponential
// backoff plus full jitter, and a sticky give-up state after MaxRedials
// consecutive dial failures. The failing call itself is NOT retried here:
// in-flight calls fail fast and retry policy lives one layer up
// (internal/resilience), which classifies the very errors this wrapper
// lets through.
//
// Each dialed client uses the same ReqID machinery as a direct Dial; a
// redial simply starts a fresh sequence on a fresh conn, so replies can
// never cross connections.
type ReconnectClient struct {
	dial Dialer
	opt  ReconnectOptions

	mu        sync.Mutex
	cond      *sync.Cond
	cur       *Client
	dialing   bool
	fails     int  // consecutive dial failures
	connected bool // at least one dial has ever succeeded
	sticky    error
	closed    bool
}

var _ BlobStore = (*ReconnectClient)(nil)

// NewReconnectClient wraps dial in a self-healing client. No connection
// is opened until the first call.
func NewReconnectClient(dial Dialer, opt ReconnectOptions) *ReconnectClient {
	opt.defaults()
	r := &ReconnectClient{dial: dial, opt: opt}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// count is a nil-safe reconnect-metric increment.
func (r *ReconnectClient) count(name string) {
	if r.opt.Registry != nil {
		r.opt.Registry.Counter(name).Inc()
	}
}

// connErr reports whether err condemns the underlying connection (as
// opposed to a per-key remote status like wire.ErrNotFound).
func connErr(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, ErrShutdown) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, wire.ErrBadMessage)
}

// backoff returns the jittered delay before dial attempt n (0-based).
func (r *ReconnectClient) backoff(n int) time.Duration {
	d := r.opt.BaseDelay
	for i := 0; i < n && d < r.opt.MaxDelay; i++ {
		d *= 2
	}
	if d > r.opt.MaxDelay {
		d = r.opt.MaxDelay
	}
	return time.Duration(r.opt.Rand() * float64(d))
}

// client returns a live Client, dialing if necessary. Exactly one
// goroutine dials at a time; the rest wait on the condition variable.
func (r *ReconnectClient) client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case r.closed:
			return nil, ErrShutdown
		case r.sticky != nil:
			return nil, r.sticky
		case r.cur != nil:
			return r.cur, nil
		case r.dialing:
			r.cond.Wait()
			continue
		}
		r.dialing = true
		attempt := r.fails
		redial := r.connected
		r.mu.Unlock()

		if redial || attempt > 0 {
			r.opt.Sleep(r.backoff(attempt))
		}
		r.count("ssp.reconnect.attempts")
		c, err := Dial(r.dial, r.opt.Recorder, r.opt.Tracer)

		r.mu.Lock()
		r.dialing = false
		r.cond.Broadcast()
		if err == nil {
			if r.closed {
				// Close raced the dial; discard the fresh connection.
				r.mu.Unlock()
				cerr := c.Close()
				r.mu.Lock()
				if cerr != nil {
					r.count("ssp.reconnect.close_fail")
				}
				return nil, ErrShutdown
			}
			c.SetCallTimeout(r.opt.CallTimeout)
			c.ObserveMetrics(r.opt.Registry)
			if redial {
				r.count("ssp.reconnect.success")
			}
			r.connected = true
			r.fails = 0
			r.cur = c
			continue
		}
		r.fails++
		r.count("ssp.reconnect.dial_fail")
		if r.opt.MaxRedials > 0 && r.fails >= r.opt.MaxRedials {
			r.sticky = fmt.Errorf("%w: %d consecutive dial failures: %w", ErrReconnectFailed, r.fails, err)
			r.count("ssp.reconnect.giveup")
		}
	}
}

// dropConn discards c if it is still the current client, so the next call
// redials. The broken client is closed, failing its in-flight calls fast.
func (r *ReconnectClient) dropConn(c *Client) {
	r.mu.Lock()
	if r.cur != c {
		r.mu.Unlock()
		return
	}
	r.cur = nil
	r.mu.Unlock()
	r.count("ssp.reconnect.drops")
	if err := c.Close(); err != nil {
		r.count("ssp.reconnect.close_fail")
	}
}

// do runs op against the current client, condemning the connection on a
// connection-class failure so the next call redials.
func (r *ReconnectClient) do(op func(*Client) error) error {
	c, err := r.client()
	if err != nil {
		return err
	}
	if err := op(c); err != nil {
		if connErr(err) {
			r.dropConn(c)
		}
		return err
	}
	return nil
}

// Close shuts the wrapper down; subsequent calls fail with ErrShutdown.
func (r *ReconnectClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.cur
	r.cur = nil
	r.cond.Broadcast()
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// Ping checks liveness through the current (or a fresh) connection.
func (r *ReconnectClient) Ping() error {
	return r.do(func(c *Client) error { return c.Ping() })
}

// Get implements BlobStore.
func (r *ReconnectClient) Get(ns wire.NS, key string) ([]byte, error) {
	var val []byte
	err := r.do(func(c *Client) error {
		v, err := c.Get(ns, key)
		val = v
		return err
	})
	return val, err
}

// Put implements BlobStore.
func (r *ReconnectClient) Put(ns wire.NS, key string, val []byte) error {
	return r.do(func(c *Client) error { return c.Put(ns, key, val) })
}

// Delete implements BlobStore.
func (r *ReconnectClient) Delete(ns wire.NS, key string) error {
	return r.do(func(c *Client) error { return c.Delete(ns, key) })
}

// List implements BlobStore.
func (r *ReconnectClient) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	var items []wire.KV
	err := r.do(func(c *Client) error {
		its, err := c.List(ns, prefix)
		items = its
		return err
	})
	return items, err
}

// BatchGet implements BlobStore.
func (r *ReconnectClient) BatchGet(req []wire.KV) ([]wire.KV, error) {
	var items []wire.KV
	err := r.do(func(c *Client) error {
		its, err := c.BatchGet(req)
		items = its
		return err
	})
	return items, err
}

// BatchPut implements BlobStore.
func (r *ReconnectClient) BatchPut(items []wire.KV) error {
	return r.do(func(c *Client) error { return c.BatchPut(items) })
}

// Stats implements BlobStore.
func (r *ReconnectClient) Stats() (Stats, error) {
	var st Stats
	err := r.do(func(c *Client) error {
		s, err := c.Stats()
		st = s
		return err
	})
	return st, err
}

// jitterSeq decorrelates the default jitter streams of clients created in
// one process without math/rand (banned outside internal/workload).
var jitterSeq atomic.Uint64

// newJitterRand returns a splitmix64-backed uniform [0,1) source. Quality
// far exceeds what backoff jitter needs; determinism-sensitive callers
// (tests, the chaos harness) inject their own Rand instead.
func newJitterRand() func() float64 {
	var mu sync.Mutex
	state := 0x9e3779b97f4a7c15 * (jitterSeq.Add(1) + 0x243f6a8885a308d3)
	return func() float64 {
		mu.Lock()
		state += 0x9e3779b97f4a7c15
		z := state
		mu.Unlock()
		z ^= z >> 30
		z *= 0xbf58476d1ce4e9b5
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}
