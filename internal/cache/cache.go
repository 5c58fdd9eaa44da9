// Package cache provides the byte-budgeted cache used by Sharoes clients.
// The cache holds *decrypted* objects — metadata, table views, manifests
// and data blocks — so a hit saves both the WAN round trip and the
// cryptographic work, which is exactly the effect the paper's Postmark
// experiment sweeps by varying cache size as a percentage of the data set.
//
// Replacement is GreedyDual-Size with a uniform miss cost (Cao & Irani,
// USITS 1997; DESIGN.md §7.24). Every miss costs the client one round
// trip whatever the object's size, so the cache keeps what saves the most
// round trips per byte:
//
//   - an entry's rank is H = L + 1/max(size, 1), where size is the charge
//     its Put named and L is the cache's floor;
//   - to make room, the entry with the lowest H is evicted and L is raised
//     to its H; the entry being put is never evicted to make room for
//     itself;
//   - a hit or a replace re-ranks the entry at the current L;
//   - equal ranks break by recency, so entries of one size leave in
//     exactly LRU order.
//
// A hit only raises an entry's rank, and takes no heap work: the heap
// orders entries by the rank they had when last placed, a lower bound on
// their live one, and an entry whose live rank has moved is re-placed
// when it reaches the top during eviction. A replace by a larger value
// can lower the rank, so that entry is re-placed at once.
// An unlimited cache (budget < 0) never evicts and keeps no ranking.
package cache

import (
	"container/heap"
	"sync"
)

// Cache is a thread-safe GreedyDual-Size cache with a byte budget.
type Cache struct {
	mu     sync.Mutex
	budget int64 // <0: unlimited; 0: disabled
	used   int64
	m      map[string]*entry
	rank   ranking // finite budget only: every entry, by placed rank
	floor  float64 // L: the rank of the last entry evicted
	clock  uint64  // counts touches; an entry's seq is its last

	hits   int64
	misses int64
}

type entry struct {
	key  string
	val  any
	size int64

	// The live rank: H and the touch that set it.
	h   float64
	seq uint64
	// The rank the heap orders the entry by, a lower bound on the live
	// one, and the entry's index in the heap.
	placedH   float64
	placedSeq uint64
	i         int
}

// New creates a cache. budget < 0 means unlimited; budget == 0 disables
// caching entirely (every Get misses).
func New(budget int64) *Cache {
	return &Cache{budget: budget, m: make(map[string]*entry)}
}

// Get returns the cached value for key, re-ranking it at the current
// floor.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	if c.budget > 0 {
		c.touch(e)
	}
	return e.val, true
}

// Put inserts or replaces the value for key, charging size bytes against
// the budget and evicting the lowest-ranked entries as needed. Values
// larger than the whole budget are not cached, and replace nothing: a
// Put of one drops what key held.
func (c *Cache) Put(key string, val any, size int64) {
	if c.budget == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !c.Holds(size) {
		if ok {
			c.remove(e)
		}
		return
	}
	if !ok {
		e = &entry{key: key}
		c.m[key] = e
	}
	c.used += size - e.size
	e.val, e.size = val, size
	if c.budget < 0 {
		return
	}
	if ok && c.used <= c.budget {
		// A replace that needs no room: re-ranked as a hit is, unless its
		// larger size lowered the rank.
		c.touch(e)
		if e.h < e.placedH {
			e.settle()
			heap.Fix(&c.rank, e.i)
		}
		return
	}
	if ok {
		heap.Remove(&c.rank, e.i)
	}
	for c.used > c.budget {
		c.evict()
	}
	c.touch(e)
	e.settle()
	heap.Push(&c.rank, e)
}

// Holds reports whether a Put of size bytes would be kept: the cache is
// enabled and the value fits the whole budget. Callers that must copy a
// value before handing it over ask first. The budget is fixed at New, so
// no lock is taken.
func (c *Cache) Holds(size int64) bool {
	return c.budget < 0 || (c.budget > 0 && size <= c.budget)
}

// touch ranks e at the current floor as the most recent entry. c.mu held.
func (c *Cache) touch(e *entry) {
	c.clock++
	e.h, e.seq = c.floor+1/float64(max(e.size, 1)), c.clock
}

// settle makes e's live rank the one the heap orders it by; the caller
// then repairs the heap. c.mu held.
func (e *entry) settle() { e.placedH, e.placedSeq = e.h, e.seq }

// evict removes the entry of lowest live rank and raises the floor to
// it. An entry hit since it was placed is re-placed at its live rank
// instead, until the top of the heap is one that was not. c.mu held.
func (c *Cache) evict() {
	for {
		e := c.rank[0]
		if e.placedSeq == e.seq {
			break
		}
		e.settle()
		heap.Fix(&c.rank, 0)
	}
	c.floor = c.rank[0].h
	c.remove(c.rank[0])
}

// remove drops e from the cache. c.mu held.
func (c *Cache) remove(e *entry) {
	if c.budget > 0 {
		heap.Remove(&c.rank, e.i)
	}
	delete(c.m, e.key)
	c.used -= e.size
}

// Delete removes key if present.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.remove(e)
	}
}

// Clear empties the cache and lowers its floor back to 0.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*entry)
	c.rank = nil
	c.used, c.floor = 0, 0
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Used returns the bytes currently charged.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// ranking is a min-heap of entries by placed rank, older first among
// equal ranks (container/heap.Interface).
type ranking []*entry

func (r ranking) Len() int { return len(r) }

func (r ranking) Less(a, b int) bool {
	x, y := r[a], r[b]
	return x.placedH < y.placedH || (x.placedH == y.placedH && x.placedSeq < y.placedSeq)
}

func (r ranking) Swap(a, b int) {
	r[a], r[b] = r[b], r[a]
	r[a].i, r[b].i = a, b
}

func (r *ranking) Push(x any) {
	e := x.(*entry)
	e.i = len(*r)
	*r = append(*r, e)
}

func (r *ranking) Pop() any {
	old := *r
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*r = old[:len(old)-1]
	return e
}
