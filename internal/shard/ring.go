// Package shard implements a consistent-hash sharded, replicated
// multi-SSP backend: a Store that presents the ordinary ssp.BlobStore
// interface while routing every (namespace, key) through a hash ring of
// virtual nodes, replicating each blob to R successor shards, writing
// quorum-style and reading with hedges.
//
// Nothing in this layer is trusted with integrity or confidentiality:
// the SSPs behind it are the paper's untrusted stores, and the client
// above it verifies every blob cryptographically. So the router only
// places and copies blobs; it agrees on nothing. Its ring is built from
// the shard set at New and never changes while the Store is in use.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/sharoes/sharoes/internal/wire"
)

// vnodes is the virtual-node count per shard. 64 points per shard keeps
// the max/mean keyspace imbalance under ~20% for small clusters without
// making lookups expensive.
const vnodes = 64

// ErrBadRing is wrapped by every rejected shard ID list.
var ErrBadRing = errors.New("shard: bad ring")

// Ring is an immutable consistent-hash ring: a shard ID list and vnode
// hash points placed for every (shard, vnode) pair. Placement depends on
// the set of IDs, not on their order, so every client naming the same
// shards builds the same ring.
type Ring struct {
	// Shards are the member shard IDs, in the order they were declared.
	Shards []string

	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int // index into Shards
}

// NewRing builds a ring. Shard IDs must be non-empty and unique.
func NewRing(shards []string) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrBadRing)
	}
	seen := make(map[string]bool, len(shards))
	for _, id := range shards {
		if id == "" {
			return nil, fmt.Errorf("%w: empty shard id", ErrBadRing)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate shard id %q", ErrBadRing, id)
		}
		seen[id] = true
	}
	r := &Ring{Shards: append([]string(nil), shards...)}
	r.points = make([]ringPoint, 0, len(shards)*vnodes)
	for si, id := range r.Shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, v), shard: si})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break by shard ID so placement does not depend on
		// the declaration order of the colliding pair.
		return r.Shards[r.points[i].shard] < r.Shards[r.points[j].shard]
	})
	return r, nil
}

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64
// constants). Raw FNV-1a over short, similar inputs (one-char shard IDs,
// small vnode counters) clusters badly on a ring — one shard can end up
// owning over half the keyspace — so every placement hash is finalized
// through this.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pointHash places vnode v of a shard on the ring.
func pointHash(id string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'#', byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	return mix64(h.Sum64())
}

// keyHash places a (namespace, key) on the ring. The namespace is part
// of the hash so each namespace's keyspace spreads independently.
func keyHash(ns wire.NS, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(ns), '/'})
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// Lookup returns the indices (into Shards) of the n distinct shards
// owning (ns, key): the successor of the key's hash point first — the
// primary — then the following distinct shards clockwise. n is clamped
// to the shard count.
func (r *Ring) Lookup(ns wire.NS, key string, n int) []int {
	return r.successors(keyHash(ns, key), n)
}

func (r *Ring) successors(h uint64, n int) []int {
	if n > len(r.Shards) {
		n = len(r.Shards)
	}
	if n <= 0 {
		return nil
	}
	out := make([]int, 0, n)
	taken := make([]bool, len(r.Shards))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.shard] {
			taken[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// Owner returns the primary shard index for (ns, key).
func (r *Ring) Owner(ns wire.NS, key string) int {
	return r.successors(keyHash(ns, key), 1)[0]
}
