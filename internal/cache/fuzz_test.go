package cache

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// refCache is a brute-force GreedyDual-Size cache: every entry carries
// its live rank, and an eviction scans for the lowest, older first among
// equal ranks. It is the rule of the package doc with nothing lazy in it.
type refCache struct {
	budget, used int64
	floor        float64
	clock        uint64
	m            map[string]*refEntry
}

type refEntry struct {
	val  int
	size int64
	h    float64
	seq  uint64
}

func (r *refCache) rank(e *refEntry) {
	r.clock++
	e.h, e.seq = r.floor+1/float64(max(e.size, 1)), r.clock
}

func (r *refCache) get(key string) (int, bool) {
	e, ok := r.m[key]
	if !ok {
		return 0, false
	}
	if r.budget > 0 {
		r.rank(e)
	}
	return e.val, true
}

func (r *refCache) put(key string, val int, size int64) {
	if r.budget == 0 {
		return
	}
	r.del(key)
	if r.budget > 0 && size > r.budget {
		return
	}
	for r.budget > 0 && r.used+size > r.budget {
		var low string
		for k, e := range r.m {
			if l := r.m[low]; low == "" || e.h < l.h || (e.h == l.h && e.seq < l.seq) {
				low = k
			}
		}
		r.floor = r.m[low].h
		r.del(low)
	}
	e := &refEntry{val: val, size: size}
	if r.budget > 0 {
		r.rank(e)
	}
	r.m[key] = e
	r.used += size
}

func (r *refCache) del(key string) {
	if e, ok := r.m[key]; ok {
		delete(r.m, key)
		r.used -= e.size
	}
}

func (r *refCache) clear() {
	r.m = make(map[string]*refEntry)
	r.used, r.floor = 0, 0
}

// FuzzCache drives a Cache and the brute-force reference through the same
// random Put/Get/Delete/Clear sequence and, after every step, requires
// the same answer, the same keys cached and the same bytes charged: so
// the lazily repaired heap evicts exactly the keys the rule names.
//
// data[0] picks the budget (255 unlimited, else 8·(data[0] mod 64) bytes,
// 0 disabled); each following 3 bytes are one call: the operation, the
// key (one of 12) and, for a Put, the size, a multiple of 8 up to a
// little over the largest budget. Sizes come from a short list so that
// equal ranks, and their tie rule, come up often.
func FuzzCache(f *testing.F) {
	// Four equal entries, the first hit, then one more: the second goes.
	f.Add([]byte{4, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 4, 1, 0, 0, 5, 1, 4, 2, 0})
	// A replace by a larger value lowers its key's rank below another
	// entry's, with no eviction; the next put must evict that key.
	f.Add([]byte{6, 0, 1, 1, 0, 2, 2, 0, 3, 1, 0, 1, 3, 0, 4, 1})
	// Small and large entries, a replace by a larger value, a delete.
	f.Add([]byte{16, 0, 1, 2, 4, 1, 0, 0, 2, 8, 0, 3, 10, 0, 1, 9, 0, 4, 0, 0, 5, 12, 6, 3, 0, 0, 6, 8})
	// Disabled, unlimited, and a value larger than the budget.
	f.Add([]byte{0, 0, 1, 1, 4, 1, 0})
	f.Add([]byte{255, 0, 1, 71, 0, 2, 71, 4, 1, 0, 6, 2, 0, 7, 0, 0})
	f.Add([]byte{2, 0, 1, 3, 0, 2, 1, 0, 2, 2, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budget := int64(data[0]%64) * 8
		if data[0] == 255 {
			budget = -1
		}
		c, ref := New(budget), &refCache{budget: budget, m: make(map[string]*refEntry)}
		for step, p := 0, 1; p+3 <= len(data); step, p = step+1, p+3 {
			op, key, size := data[p]%8, fmt.Sprintf("k%d", data[p+1]%12), int64(data[p+2]%72)*8
			var call string
			switch {
			case op < 4:
				call = fmt.Sprintf("Put(%s, %d)", key, size)
				c.Put(key, step, size)
				ref.put(key, step, size)
			case op < 6:
				call = fmt.Sprintf("Get(%s)", key)
				v, ok := c.Get(key)
				rv, rok := ref.get(key)
				if ok != rok || (ok && v.(int) != rv) {
					t.Fatalf("step %d %s = %v, %v; reference %v, %v", step, call, v, ok, rv, rok)
				}
			case op < 7:
				call = fmt.Sprintf("Delete(%s)", key)
				c.Delete(key)
				ref.del(key)
			default:
				call = "Clear()"
				c.Clear()
				ref.clear()
			}
			if got, want := cachedKeys(c), refKeys(ref); got != want {
				t.Fatalf("budget %d step %d %s: cached [%s], reference [%s]", budget, step, call, got, want)
			}
			if c.Used() != ref.used || c.Len() != len(ref.m) {
				t.Fatalf("budget %d step %d %s: used %d len %d, reference %d and %d", budget, step, call, c.Used(), c.Len(), ref.used, len(ref.m))
			}
			if budget > 0 && c.Used() > budget {
				t.Fatalf("budget %d step %d %s: used %d", budget, step, call, c.Used())
			}
		}
	})
}

func cachedKeys(c *Cache) string {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func refKeys(r *refCache) string {
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
