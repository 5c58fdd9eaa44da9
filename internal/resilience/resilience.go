// Package resilience implements the classified retry policy of the
// self-healing transport stack: it decides which errors are transient
// (worth retrying) and which operations are idempotent (safe to retry),
// and wraps an ssp.BlobStore so that only that intersection is retried —
// with exponential backoff, full jitter, and a token budget so a sick
// backend is never hammered with amplified load.
//
// Division of labor across the stack: the ReconnectClient fails a hung
// call fast (its per-call deadline condemns the connection) and heals
// the connection (redial with backoff); this package re-issues the work
// when doing so is provably safe. Reads are always idempotent; Put is
// retried only when the caller vouches (via the content-key predicate)
// that the key is content-addressed, i.e. every writer writes the same
// bytes for it, so a retry can never resurrect a lost update.
package resilience

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Transient reports whether err belongs to a failure class worth
// retrying: injected write faults, call deadlines, connection drops and
// redial races, net timeouts. Remote per-key statuses (wire.ErrNotFound)
// and the reconnect wrapper's sticky give-up (ssp.ErrReconnectFailed)
// are permanent. Matching is errors.Is throughout, so wrapped forms —
// including shard.ErrQuorum wrapping a transient cause — classify by
// their sentinel, not their message.
func Transient(err error) bool {
	if err == nil ||
		errors.Is(err, wire.ErrNotFound) ||
		errors.Is(err, ssp.ErrReconnectFailed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, ssp.ErrDeadline) ||
		errors.Is(err, ssp.ErrShutdown) ||
		errors.Is(err, ssp.ErrInjectedWrite) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// maxAttempts bounds total tries per operation, first included.
// baseDelay seeds the between-attempt backoff and maxDelay caps it; the
// actual sleeps are full-jitter: uniform in [0, min(maxDelay,
// baseDelay<<attempt)).
//
// budgetRatio and budgetBurst are the Finagle-style retry budget: every
// operation deposits budgetRatio retry tokens (kept in milli-tokens) and
// each retry withdraws one whole token, so sustained retry load is
// bounded to that fraction of request load; the bucket starts full and
// holds at most budgetBurst tokens. A denied withdrawal surfaces the
// error immediately and counts resilience.retry.budget_denied.
const (
	maxAttempts = 3
	baseDelay   = 200 * time.Microsecond
	maxDelay    = 20 * time.Millisecond
	budgetRatio = 0.2
	budgetBurst = 10
)

// Policy configures a retrying Store. Zero values take the defaults
// noted on each field.
type Policy struct {
	// Sleep is injectable for tests; nil uses time.Sleep.
	Sleep func(time.Duration)
	// Registry, when non-nil, receives the resilience.retry.* counters:
	// attempts (retries issued), success (ops rescued by a retry),
	// exhausted (transient errors surfaced after the attempt budget),
	// budget_denied (retries suppressed by the token budget).
	Registry *obs.Registry
}

func (p *Policy) defaults() {
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
}

// ContentKeyFunc vouches that (ns, key) is content-addressed — all
// writers write identical bytes under it — making its Put idempotent and
// therefore retryable. nil means "never": writes surface their first
// transient error to the caller (whose quorum or write-behind layer
// handles it).
type ContentKeyFunc func(ns wire.NS, key string) bool

// Store wraps an ssp.BlobStore with the classified retry policy. It is a
// plain BlobStore decorator: it sits on one backend's connection, below
// any router or write-behind layer, and exposes no optional interface.
type Store struct {
	inner      ssp.BlobStore
	pol        Policy
	contentKey ContentKeyFunc
	jitter     func() float64 // uniform in [0, 1), a fixed-seed splitmix64 stream

	// budget is the token bucket in milli-tokens, capped at
	// budgetBurst*1000; each retry costs 1000.
	budget atomic.Int64
}

var _ ssp.BlobStore = (*Store)(nil)

// NewStore wraps inner with pol. contentKey may be nil (no Put retries).
func NewStore(inner ssp.BlobStore, pol Policy, contentKey ContentKeyFunc) *Store {
	pol.defaults()
	s := &Store{inner: inner, pol: pol, contentKey: contentKey, jitter: splitmixRand(0x5eed5eed5eed5eed)}
	s.budget.Store(budgetBurst * 1000)
	return s
}

func (s *Store) count(name string) {
	if s.pol.Registry != nil {
		s.pol.Registry.Counter(name).Inc()
	}
}

// deposit credits the retry budget for one attempted operation.
func (s *Store) deposit() {
	for {
		cur := s.budget.Load()
		next := cur + budgetRatio*1000
		if next > budgetBurst*1000 {
			next = budgetBurst * 1000
		}
		if next == cur || s.budget.CompareAndSwap(cur, next) {
			return
		}
	}
}

// withdraw takes one whole retry token, reporting false when the bucket
// is too empty — the caller then surfaces the error instead of retrying.
func (s *Store) withdraw() bool {
	for {
		cur := s.budget.Load()
		if cur < 1000 {
			return false
		}
		if s.budget.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// backoff returns the jittered pre-retry delay for retry n (1-based).
func (s *Store) backoff(n int) time.Duration {
	d := baseDelay
	for i := 1; i < n && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return time.Duration(s.jitter() * float64(d))
}

// do runs op under the retry policy. Only idempotent ops retry, only on
// transient errors, and only while the token budget allows.
func (s *Store) do(idempotent bool, op func() error) error {
	s.deposit()
	err := op()
	for retry := 1; err != nil && retry < maxAttempts; retry++ {
		if !idempotent || !Transient(err) {
			return err
		}
		if !s.withdraw() {
			s.count("resilience.retry.budget_denied")
			break
		}
		s.pol.Sleep(s.backoff(retry))
		s.count("resilience.retry.attempts")
		if err = op(); err == nil {
			s.count("resilience.retry.success")
			return nil
		}
	}
	if err != nil && idempotent && Transient(err) {
		s.count("resilience.retry.exhausted")
	}
	return err
}

// contentAddressed reports whether every write in items is vouched
// idempotent (deletes always are: deleting twice converges).
func (s *Store) contentAddressed(items []wire.KV) bool {
	if s.contentKey == nil {
		return false
	}
	for _, it := range items {
		if !it.Delete && !s.contentKey(it.NS, it.Key) {
			return false
		}
	}
	return true
}

// Get implements ssp.BlobStore (retried: reads are idempotent).
func (s *Store) Get(ns wire.NS, key string) ([]byte, error) {
	var val []byte
	err := s.do(true, func() error {
		v, err := s.inner.Get(ns, key)
		val = v
		return err
	})
	return val, err
}

// Put implements ssp.BlobStore (retried only for content-addressed keys).
func (s *Store) Put(ns wire.NS, key string, val []byte) error {
	idem := s.contentKey != nil && s.contentKey(ns, key)
	return s.do(idem, func() error { return s.inner.Put(ns, key, val) })
}

// Delete implements ssp.BlobStore (retried: deletes converge).
func (s *Store) Delete(ns wire.NS, key string) error {
	return s.do(true, func() error { return s.inner.Delete(ns, key) })
}

// List implements ssp.BlobStore (retried).
func (s *Store) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	var items []wire.KV
	err := s.do(true, func() error {
		its, err := s.inner.List(ns, prefix)
		items = its
		return err
	})
	return items, err
}

// BatchGet implements ssp.BlobStore (retried).
func (s *Store) BatchGet(req []wire.KV) ([]wire.KV, error) {
	var items []wire.KV
	err := s.do(true, func() error {
		its, err := s.inner.BatchGet(req)
		items = its
		return err
	})
	return items, err
}

// BatchPut implements ssp.BlobStore (retried only when every item is
// vouched content-addressed or a delete).
func (s *Store) BatchPut(items []wire.KV) error {
	return s.do(s.contentAddressed(items), func() error { return s.inner.BatchPut(items) })
}

// Stats implements ssp.BlobStore (retried).
func (s *Store) Stats() (ssp.Stats, error) {
	var st ssp.Stats
	err := s.do(true, func() error {
		x, err := s.inner.Stats()
		st = x
		return err
	})
	return st, err
}

// splitmixRand returns a locked splitmix64 uniform [0,1) stream seeded
// deterministically (jitter needs decorrelation, not secrecy; math/rand
// is banned outside internal/workload by the rawrand analyzer).
func splitmixRand(seed uint64) func() float64 {
	var mu sync.Mutex
	state := seed
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
