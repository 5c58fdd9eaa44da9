package shard

import (
	"fmt"
	"sort"

	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// allNamespaces enumerates every SSP namespace a rebalance must stream.
var allNamespaces = []wire.NS{
	wire.NSMeta, wire.NSData, wire.NSSuper, wire.NSGroupKey, wire.NSSplit, wire.NSSys,
}

// streamBatch bounds one rebalance BatchPut so a migration never holds a
// giant frame on the wire, and bounds how long each streamed chunk holds
// the write fence.
const streamBatch = 64

// Rebalance installs a new shard membership live, without stopping
// traffic:
//
//  1. The ring swap waits for in-flight writes (the streamMu fence) and
//     background tasks to drain, then installs the new ring (epoch+1)
//     with the old ring retained. From here writes route to the union of
//     old and new replica sets (quorum counted against the new ring) and
//     reads that miss every new-ring replica fall back to the old
//     owners, repairing the new ones.
//  2. Every key whose replica set changed is streamed to the shards that
//     newly own it, in per-destination batches. Each chunk holds the
//     fence exclusively and skips keys written since the swap (the
//     writer already placed the newer value on every new-ring replica),
//     so streaming never rolls a concurrent write back.
//  3. The old ring is dropped: the membership change is complete. On a
//     streaming error the OLD ring is reinstated instead, so no key goes
//     dark behind a half-populated membership.
//  4. With gc set, copies on shards that no longer own their key are
//     deleted. GC runs strictly after the swap, so no key ever dips
//     below its full replica count.
//
// Callers layering a write-behind buffer over this store must Barrier()
// it first so buffered writes route under a single ring generation; the
// workload harness does exactly that.
func (s *Store) Rebalance(backends []Backend, gc bool) error {
	ids := make([]string, len(backends))
	for i, b := range backends {
		if b.Store == nil {
			return fmt.Errorf("shard: backend %q has nil store", b.ID)
		}
		ids[i] = b.ID
	}

	// Swap under the exclusive fence: every in-flight write completes
	// first, so the values it wrote are on old-ring replicas and will be
	// seen by the streamer's listing. Then drain the background repairs,
	// so no task routed under the old ring is still writing at the swap.
	s.streamMu.Lock()
	s.waitIdle()
	s.mu.Lock()
	if s.old != nil {
		s.mu.Unlock()
		s.streamMu.Unlock()
		return fmt.Errorf("shard: rebalance already in progress")
	}
	newRing, err := NewRing(s.ring.Epoch+1, ids, s.opt.Vnodes)
	if err != nil {
		s.mu.Unlock()
		s.streamMu.Unlock()
		return err
	}
	oldRing := s.ring
	// Copy-on-write: concurrent reads hold unlocked snapshots of the
	// backend map, so membership changes must install a fresh map, never
	// mutate the shared one.
	merged := make(map[string]ssp.BlobStore, len(s.backends)+len(backends))
	for id, st := range s.backends {
		// Departing members stay reachable for the streaming and GC
		// phases and are detached at the end.
		merged[id] = st
	}
	for _, b := range backends {
		merged[b.ID] = b.Store
	}
	s.backends = merged
	s.ring = newRing
	s.old = oldRing
	s.dirty = make(map[string]bool)
	stores := s.backends
	s.mu.Unlock()
	s.streamMu.Unlock()

	// Replica counts clamp to each membership's size.
	oldR, newR := s.opt.Replicas, s.opt.Replicas
	if oldR > len(oldRing.Shards) {
		oldR = len(oldRing.Shards)
	}
	if newR > len(newRing.Shards) {
		newR = len(newRing.Shards)
	}

	moved, streamErr := s.stream(oldRing, newRing, oldR, newR, stores)

	s.mu.Lock()
	if streamErr != nil {
		// Roll the ring back so reads keep resolving through the old
		// owners; copies already streamed are harmless extras. Members
		// that were only joining are detached again.
		s.ring = oldRing
		s.old = nil
		s.dirty = nil
		s.backends = restrictBackends(s.backends, oldRing.Shards)
		s.mu.Unlock()
		return fmt.Errorf("shard: rebalance aborted (ring rolled back): %w", streamErr)
	}
	s.old = nil
	s.dirty = nil
	s.mu.Unlock()
	if s.opt.Registry != nil {
		s.opt.Registry.Counter("shard.rebalance.moved").Add(int64(moved))
	}

	if gc {
		if err := s.gcOldCopies(oldRing, newRing, newR, stores); err != nil {
			return err
		}
	}

	// Detach departed backends now that nothing routes to them.
	s.mu.Lock()
	s.backends = restrictBackends(s.backends, ids)
	s.mu.Unlock()
	return nil
}

// restrictBackends returns a fresh backend map holding only keep —
// copy-on-write, because readers use unlocked snapshots of the old map.
func restrictBackends(m map[string]ssp.BlobStore, keep []string) map[string]ssp.BlobStore {
	out := make(map[string]ssp.BlobStore, len(keep))
	for _, id := range keep {
		if st, ok := m[id]; ok {
			out[id] = st
		}
	}
	return out
}

// AddShard grows the membership by one backend and rebalances.
func (s *Store) AddShard(b Backend, gc bool) error {
	cur := s.currentBackends()
	for _, c := range cur {
		if c.ID == b.ID {
			return fmt.Errorf("shard: %q already a member", b.ID)
		}
	}
	return s.Rebalance(append(cur, b), gc)
}

// RemoveShard shrinks the membership by one ID and rebalances; the
// departing shard's keys are streamed to their new owners first.
func (s *Store) RemoveShard(id string, gc bool) error {
	cur := s.currentBackends()
	out := cur[:0]
	for _, c := range cur {
		if c.ID != id {
			out = append(out, c)
		}
	}
	if len(out) == len(cur) {
		return fmt.Errorf("shard: %q is not a member", id)
	}
	return s.Rebalance(out, gc)
}

func (s *Store) currentBackends() []Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Backend, 0, len(s.ring.Shards))
	for _, id := range s.ring.Shards {
		out = append(out, Backend{ID: id, Store: s.backends[id]})
	}
	return out
}

// stream copies ownership-changed keys to their new replicas. Returns
// how many (key, destination) copies moved.
func (s *Store) stream(oldRing, newRing *Ring, oldR, newR int, stores map[string]ssp.BlobStore) (int, error) {
	moved := 0
	for _, ns := range allNamespaces {
		// Key universe for this namespace, discovered from the old
		// owners (every key has at least one live old replica by the
		// write invariant). The first replica in ring order wins a
		// duplicate listing.
		keys := make(map[string][]byte)
		for _, id := range oldRing.Shards {
			items, err := stores[id].List(ns, "")
			if err != nil {
				// A dead old shard is survivable: its keys' other old
				// replicas list them. Keys whose every old replica is
				// down were already unreadable before the rebalance.
				continue
			}
			for _, kv := range items {
				if _, ok := keys[kv.Key]; !ok {
					keys[kv.Key] = kv.Val
				}
			}
		}
		// Group destination writes per backend for batched streaming.
		dests := make(map[string][]wire.KV)
		for key, val := range keys {
			oldSet := make(map[string]bool, oldR)
			for _, si := range oldRing.Lookup(ns, key, oldR) {
				oldSet[oldRing.Shards[si]] = true
			}
			for _, si := range newRing.Lookup(ns, key, newR) {
				id := newRing.Shards[si]
				if !oldSet[id] {
					dests[id] = append(dests[id], wire.KV{NS: ns, Key: key, Val: val})
				}
			}
		}
		// Deterministic order keeps failures reproducible.
		ids := make([]string, 0, len(dests))
		for id := range dests {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			batch := dests[id]
			for off := 0; off < len(batch); off += streamBatch {
				end := off + streamBatch
				if end > len(batch) {
					end = len(batch)
				}
				n, err := s.streamChunk(stores[id], batch[off:end])
				moved += n
				if err != nil {
					return moved, fmt.Errorf("stream %s to %s: %w", ns, id, err)
				}
			}
		}
	}
	return moved, nil
}

// streamChunk writes one destination batch under the exclusive fence,
// dropping keys dirtied by concurrent writes since the swap.
func (s *Store) streamChunk(dst ssp.BlobStore, batch []wire.KV) (int, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	s.mu.Lock()
	live := batch[:0]
	for _, kv := range batch {
		if !s.dirty[dirtyKey(kv.NS, kv.Key)] {
			live = append(live, kv)
		}
	}
	s.mu.Unlock()
	if len(live) == 0 {
		return 0, nil
	}
	if err := dst.BatchPut(live); err != nil {
		return 0, err
	}
	return len(live), nil
}

// gcOldCopies deletes blobs from shards that no longer own them under
// the (already live) new ring.
func (s *Store) gcOldCopies(oldRing, newRing *Ring, newR int, stores map[string]ssp.BlobStore) error {
	for _, ns := range allNamespaces {
		for _, id := range oldRing.Shards {
			items, err := stores[id].List(ns, "")
			if err != nil {
				continue // unreachable shard: nothing to GC there
			}
			var dead []wire.KV
			for _, kv := range items {
				owned := false
				for _, si := range newRing.Lookup(ns, kv.Key, newR) {
					if newRing.Shards[si] == id {
						owned = true
						break
					}
				}
				if !owned {
					dead = append(dead, wire.KV{NS: ns, Key: kv.Key, Delete: true})
				}
			}
			for off := 0; off < len(dead); off += streamBatch {
				end := off + streamBatch
				if end > len(dead) {
					end = len(dead)
				}
				if err := stores[id].BatchPut(dead[off:end]); err != nil {
					return fmt.Errorf("shard: gc %s on %s: %w", ns, id, err)
				}
			}
		}
	}
	return nil
}
