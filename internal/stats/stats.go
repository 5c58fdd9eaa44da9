// Package stats instruments Sharoes operations with the paper's Figure 13
// decomposition of wall-clock time: NETWORK (waiting on the SSP) and
// CRYPTO (encryption, decryption, signing, verification) are timed; OTHER
// (serialization, cache management, bookkeeping) is never timed but is
// what the two leave of an operation's wall time (BreakdownFrom).
//
// A Recorder sums the time of the same crypto.* and rpc.* sections that
// internal/obs records as classed trace spans, with a clock of its own:
// the span keeps each section's start and length, the Recorder only the
// totals per class.
package stats

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
)

// Recorder accumulates time per cost class plus operation and byte
// counters. It is safe for concurrent use. The zero value is ready to
// use; a nil *Recorder discards all measurements, so instrumentation call
// sites never need nil checks.
type Recorder struct {
	network, crypto   atomic.Int64 // nanoseconds
	ops, cryptoOps    atomic.Int64
	bytesOut, bytesIn atomic.Int64
}

// Time starts a timer charging class c (obs.ClassNetwork or
// obs.ClassCrypto; any other class is discarded); call the returned func
// to stop it. Usage: defer r.Time(obs.ClassCrypto)().
func (r *Recorder) Time(c obs.Class) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.add(c, time.Since(start)) }
}

// add charges d to class c; a CRYPTO charge counts one crypto section.
func (r *Recorder) add(c obs.Class, d time.Duration) {
	switch c {
	case obs.ClassNetwork:
		r.network.Add(int64(d))
	case obs.ClassCrypto:
		r.crypto.Add(int64(d))
		r.cryptoOps.Add(1)
	}
}

// AddOp counts one completed filesystem operation.
func (r *Recorder) AddOp() {
	if r == nil {
		return
	}
	r.ops.Add(1)
}

// AddBytes records wire traffic: out is bytes sent to the SSP, in is bytes
// received from it.
func (r *Recorder) AddBytes(out, in int) {
	if r == nil {
		return
	}
	r.bytesOut.Add(int64(out))
	r.bytesIn.Add(int64(in))
}

// Snapshot is a point-in-time copy of a Recorder's counters.
type Snapshot struct {
	Network   time.Duration
	Crypto    time.Duration
	Ops       int64
	BytesOut  int64
	BytesIn   int64
	CryptoOps int64
}

// Snapshot returns the current counters. Safe on a nil Recorder.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return Snapshot{
		Network:   time.Duration(r.network.Load()),
		Crypto:    time.Duration(r.crypto.Load()),
		Ops:       r.ops.Load(),
		BytesOut:  r.bytesOut.Load(),
		BytesIn:   r.bytesIn.Load(),
		CryptoOps: r.cryptoOps.Load(),
	}
}

// Sub returns the component-wise difference s - o. Use it to isolate the
// cost of a single operation between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Network:   s.Network - o.Network,
		Crypto:    s.Crypto - o.Crypto,
		Ops:       s.Ops - o.Ops,
		BytesOut:  s.BytesOut - o.BytesOut,
		BytesIn:   s.BytesIn - o.BytesIn,
		CryptoOps: s.CryptoOps - o.CryptoOps,
	}
}

// String renders the snapshot in a compact human-readable form.
func (s Snapshot) String() string {
	return fmt.Sprintf("net=%v crypto=%v ops=%d out=%dB in=%dB",
		s.Network.Round(time.Microsecond), s.Crypto.Round(time.Microsecond),
		s.Ops, s.BytesOut, s.BytesIn)
}

// OpBreakdown is the per-operation cost decomposition used by Figure 13.
type OpBreakdown struct {
	Op      string
	Network time.Duration
	Crypto  time.Duration
	Other   time.Duration
}

// Total returns the total duration of the operation: its wall time,
// unless the timed classes overran it (see BreakdownFrom).
func (b OpBreakdown) Total() time.Duration { return b.Network + b.Crypto + b.Other }

// CryptoFraction returns the CRYPTO share of Total (0 when Total is 0):
// CRYPTO ÷ wall time, and never above 1. The paper's headline claim for
// Figure 13 is that it stays below 7%.
func (b OpBreakdown) CryptoFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Crypto) / float64(t)
}

// BreakdownFrom derives an OpBreakdown for a named operation that ran
// between snapshots a and b and took wallTotal overall. NETWORK and CRYPTO
// come from the recorder; OTHER is the remainder of wall time, exactly as
// the paper computes it, and 0 when the timed classes overran the wall
// (concurrent sections each charge their own time).
func BreakdownFrom(op string, a, b Snapshot, wallTotal time.Duration) OpBreakdown {
	d := b.Sub(a)
	other := wallTotal - d.Network - d.Crypto
	if other < 0 {
		other = 0
	}
	return OpBreakdown{Op: op, Network: d.Network, Crypto: d.Crypto, Other: other}
}
