package ssp

import (
	"errors"
	"strings"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/wire"
)

// FaultMode selects a malicious-SSP behaviour.
type FaultMode uint8

// Fault modes. The paper's threat model (§VII) trusts the SSP to store and
// retrieve but not with confidentiality or access control; clients must
// detect tampering via signatures. These modes exercise those paths.
const (
	// FaultTamper flips bytes in matching blobs before serving them.
	FaultTamper FaultMode = iota + 1
	// FaultRollback serves the first version ever stored for matching
	// keys, modelling a replay of stale (but once-valid) state.
	FaultRollback
	// FaultDrop pretends matching keys do not exist.
	FaultDrop
	// FaultSwap serves the blob stored under a different key of the same
	// namespace, modelling object substitution.
	FaultSwap
	// FaultWriteErr fails writes (Put/BatchPut) to matching keys with
	// ErrInjectedWrite, modelling a backend that serves reads but cannot
	// persist. It exercises the deferred/sticky error path of the
	// write-behind layer, whose flush failures surface on a later
	// operation. Reads ignore rules of this mode.
	FaultWriteErr
	// FaultSlow delays matching Gets by the rule's Delay before serving
	// the true value, modelling a straggling (but honest) backend. It
	// exercises the hedged-read path of the shard layer: a slow primary
	// should lose the race to a hedge sent to a healthy replica.
	FaultSlow
	// FaultConnDrop severs every live connection to this backend (via the
	// OnSever hook) on the first matching operation, then disarms — a
	// one-shot network partition mid-stream. The operation itself still
	// executes; it is the response that dies on the cut link, which is
	// exactly the ambiguity a real drop leaves (did the write land?).
	FaultConnDrop
	// FaultFlap severs the link on every Every'th matching operation, for
	// as long as the rule stays armed — a flapping route. Exercises the
	// reconnect wrapper's redial loop and the shard breaker's open/close
	// cycling.
	FaultFlap
)

// ErrInjectedWrite is the error FaultWriteErr rules inject on writes.
var ErrInjectedWrite = errors.New("ssp: injected write fault")

// FaultRule matches blobs by namespace and key substring. NS 0 is a
// wildcard matching every namespace, so a whole-backend fault ("this
// shard is down", "this shard is slow") is one rule, not one per NS.
type FaultRule struct {
	Mode    FaultMode
	NS      wire.NS       // 0 matches all namespaces
	KeyPart string        // substring of key; empty matches every key in NS
	SwapKey string        // FaultSwap: serve this key's value instead
	Delay   time.Duration // FaultSlow: added latency per matching Get
	Every   int           // FaultFlap: sever on every Every'th match (default 25)

	hits int // matching ops seen by this conn-fault rule (internal)
}

// FaultStore wraps a BlobStore with a malicious read path. Writes pass
// through unchanged (the SSP has no reason to corrupt its own hashtable;
// the attack surface the paper cares about is what clients are served).
type FaultStore struct {
	Inner BlobStore

	mu      sync.Mutex
	rules   []FaultRule
	history map[string][]byte // first version per ns/key, for rollback
	// Triggered counts how many reads were maliciously altered.
	triggered int
	// sever cuts the transport to this backend (FaultConnDrop/FaultFlap);
	// wired by OnSever, typically to netsim.Listener.SeverConns or
	// Server.SeverConns. Called outside mu.
	sever func()
}

// NewFaultStore wraps inner.
func NewFaultStore(inner BlobStore) *FaultStore {
	return &FaultStore{Inner: inner, history: make(map[string][]byte)}
}

// AddRule arms a fault rule.
func (s *FaultStore) AddRule(r FaultRule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, r)
}

// ClearRules disarms all rules.
func (s *FaultStore) ClearRules() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = nil
}

// Triggered reports how many reads were altered.
func (s *FaultStore) Triggered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.triggered
}

// OnSever wires the transport-cutting hook the connection fault modes
// fire (nil disarms them). The hook runs outside the store's mutex, on
// the goroutine of the operation that tripped the rule.
func (s *FaultStore) OnSever(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sever = f
}

// connFault checks (and advances) the connection-fault rules for one
// matching operation, returning the sever hook to fire, if any. Both read
// and write paths call it: a link drop is path-agnostic.
func (s *FaultStore) connFault(ns wire.NS, key string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sever == nil {
		return nil
	}
	for i := range s.rules {
		r := &s.rules[i]
		if r.Mode != FaultConnDrop && r.Mode != FaultFlap {
			continue
		}
		if (r.NS != 0 && r.NS != ns) || (r.KeyPart != "" && !strings.Contains(key, r.KeyPart)) {
			continue
		}
		r.hits++
		switch r.Mode {
		case FaultConnDrop:
			if r.hits == 1 {
				s.triggered++
				return s.sever
			}
		case FaultFlap:
			every := r.Every
			if every <= 0 {
				every = 25
			}
			if r.hits%every == 0 {
				s.triggered++
				return s.sever
			}
		}
	}
	return nil
}

// applyConnFault severs the link if a connection-fault rule trips on this
// operation. The operation proceeds regardless — the cut happens at the
// transport, so the response (not the store mutation) is what gets lost.
func (s *FaultStore) applyConnFault(ns wire.NS, key string) {
	if sever := s.connFault(ns, key); sever != nil {
		sever()
	}
}

func histKey(ns wire.NS, key string) string { return string(rune(ns)) + "/" + key }

// match returns the first armed rule for (ns, key) on the given path.
// Matching is path-aware so one backend can carry both a write fault and
// a read fault at once (a fully lost shard is FaultWriteErr + FaultDrop):
// the write path sees only FaultWriteErr rules, the read path everything
// else.
func (s *FaultStore) match(ns wire.NS, key string, write bool) *FaultRule {
	for i := range s.rules {
		r := &s.rules[i]
		if r.Mode == FaultConnDrop || r.Mode == FaultFlap {
			continue // transport faults; handled by connFault on both paths
		}
		if write != (r.Mode == FaultWriteErr) {
			continue
		}
		if (r.NS == 0 || r.NS == ns) && (r.KeyPart == "" || strings.Contains(key, r.KeyPart)) {
			return r
		}
	}
	return nil
}

// Get implements BlobStore, applying any matching read fault.
func (s *FaultStore) Get(ns wire.NS, key string) ([]byte, error) {
	s.applyConnFault(ns, key)
	s.mu.Lock()
	rule := s.match(ns, key, false)
	var rollback []byte
	if rule != nil && rule.Mode == FaultRollback {
		rollback = s.history[histKey(ns, key)]
	}
	if rule != nil {
		s.triggered++
	}
	var delay time.Duration
	if rule != nil && rule.Mode == FaultSlow {
		delay = rule.Delay
		rule = nil // honest, just late: fall through to the true value
	}
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}

	if rule == nil {
		return s.Inner.Get(ns, key)
	}
	switch rule.Mode {
	case FaultDrop:
		return nil, wire.ErrNotFound
	case FaultRollback:
		if rollback != nil {
			out := make([]byte, len(rollback))
			copy(out, rollback)
			return out, nil
		}
		return s.Inner.Get(ns, key)
	case FaultSwap:
		return s.Inner.Get(ns, rule.SwapKey)
	default: // FaultTamper
		val, err := s.Inner.Get(ns, key)
		if err != nil {
			return nil, err
		}
		if len(val) > 0 {
			val[len(val)/2] ^= 0x55
		}
		return val, nil
	}
}

// Put implements BlobStore, recording first versions for rollback and
// applying any matching write fault.
func (s *FaultStore) Put(ns wire.NS, key string, val []byte) error {
	s.applyConnFault(ns, key)
	s.mu.Lock()
	if r := s.match(ns, key, true); r != nil {
		s.triggered++
		s.mu.Unlock()
		return ErrInjectedWrite
	}
	hk := histKey(ns, key)
	if _, ok := s.history[hk]; !ok {
		s.history[hk] = val // the store's now: nobody writes into it
	}
	s.mu.Unlock()
	return s.Inner.Put(ns, key, val)
}

// Delete implements BlobStore.
func (s *FaultStore) Delete(ns wire.NS, key string) error {
	s.applyConnFault(ns, key)
	return s.Inner.Delete(ns, key)
}

// List implements BlobStore. Fault rules are applied per returned item.
func (s *FaultStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	items, err := s.Inner.List(ns, prefix)
	if err != nil {
		return nil, err
	}
	out := items[:0]
	for _, it := range items {
		v, err := s.Get(it.NS, it.Key)
		if err == wire.ErrNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		it.Val = v
		out = append(out, it)
	}
	return out, nil
}

// BatchGet implements BlobStore via the faulting Get.
func (s *FaultStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	out := make([]wire.KV, 0, len(items))
	for _, it := range items {
		v, err := s.Get(it.NS, it.Key)
		if err == wire.ErrNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, wire.KV{NS: it.NS, Key: it.Key, Val: v})
	}
	return out, nil
}

// BatchPut implements BlobStore via the history-recording Put.
func (s *FaultStore) BatchPut(items []wire.KV) error {
	for _, it := range items {
		if it.Delete {
			if err := s.Delete(it.NS, it.Key); err != nil {
				return err
			}
			continue
		}
		if err := s.Put(it.NS, it.Key, it.Val); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements BlobStore.
func (s *FaultStore) Stats() (Stats, error) { return s.Inner.Stats() }
