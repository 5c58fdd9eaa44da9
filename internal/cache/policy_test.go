package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSmallHitEntrySurvivesLargeStream: a small entry that was hit once
// survives a stream of large puts that evicts the large ones, one after
// another. Under LRU the third large put would have pushed it out.
func TestSmallHitEntrySurvivesLargeStream(t *testing.T) {
	c := New(3000)
	c.Put("meta", "m", 100)
	c.Get("meta")
	const puts = 12
	for i := 0; i < puts; i++ {
		c.Put(fmt.Sprintf("block%d", i), i, 1000)
		if _, ok := c.m["meta"]; !ok {
			t.Fatalf("small entry evicted by large put %d", i)
		}
	}
	for i := 0; i < puts; i++ {
		_, ok := c.m[fmt.Sprintf("block%d", i)]
		if want := i >= puts-2; ok != want {
			t.Errorf("block%d cached = %v, want %v", i, ok, want)
		}
	}
	if c.Used() != 2100 || c.Len() != 3 {
		t.Errorf("used=%d len=%d, want 2100 and 3 (meta and the last two blocks)", c.Used(), c.Len())
	}
}

// TestZeroSizeRankedAsOneByte: a zero-size entry gets the rank of a 1-byte
// one, and so leaves before a 1-byte entry put after it.
func TestZeroSizeRankedAsOneByte(t *testing.T) {
	c := New(2)
	c.Put("zero", 0, 0)
	c.Put("one", 1, 1)
	if z, o := c.m["zero"].h, c.m["one"].h; z != o || z != 1 {
		t.Fatalf("ranks: zero-size %v, 1-byte %v, want both 1", z, o)
	}
	c.Put("a", 2, 1)
	c.Put("b", 3, 1) // needs one byte: the zero-size entry goes, then "one"
	for k, want := range map[string]bool{"zero": false, "one": false, "a": true, "b": true} {
		if _, ok := c.m[k]; ok != want {
			t.Errorf("%s cached = %v, want %v", k, ok, want)
		}
	}
	if c.floor != 1 {
		t.Errorf("floor = %v, want 1", c.floor)
	}
}

// TestUnlimitedKeepsNoRanking: an unlimited cache evicts nothing and
// keeps no heap, clock or floor however it is used.
func TestUnlimitedKeepsNoRanking(t *testing.T) {
	c := New(-1)
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Put(k, i, int64(i%7)<<20)
		c.Get(k)
		c.Put(k, i, int64(i%5)<<20) // a replace
	}
	for i := 0; i < 3; i++ {
		c.Delete(fmt.Sprintf("k%d", i))
	}
	if len(c.rank) != 0 || c.clock != 0 || c.floor != 0 {
		t.Errorf("ranking kept: heap %d, clock %d, floor %v", len(c.rank), c.clock, c.floor)
	}
	var want int64
	for _, e := range c.m {
		want += e.size
	}
	if c.Len() != 147 || c.Used() != want {
		t.Errorf("len=%d used=%d, want 147 and %d", c.Len(), c.Used(), want)
	}
}

// TestUsedTracksLiveSizes: after every call of a random sequence, Used()
// is within the budget and equals the sum of the live entries' sizes,
// and every live entry is in the heap at its own index.
func TestUsedTracksLiveSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, budget := range []int64{1, 100, 4096} {
		c := New(budget)
		for step := 0; step < 5000; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			switch op := rng.Intn(10); {
			case op < 5:
				c.Put(k, step, rng.Int63n(budget+budget/4+1))
			case op < 8:
				c.Get(k)
			case op < 9:
				c.Delete(k)
			default:
				if rng.Intn(20) == 0 {
					c.Clear()
				}
			}
			var sum int64
			for _, e := range c.m {
				sum += e.size
			}
			if used := c.Used(); used != sum || used > budget {
				t.Fatalf("budget %d step %d: used %d, live sizes sum to %d", budget, step, used, sum)
			}
			if len(c.rank) != len(c.m) {
				t.Fatalf("budget %d step %d: heap %d entries, map %d", budget, step, len(c.rank), len(c.m))
			}
			for i, e := range c.rank {
				if e.i != i || c.m[e.key] != e {
					t.Fatalf("budget %d step %d: heap slot %d holds %q at index %d", budget, step, i, e.key, e.i)
				}
			}
		}
	}
}
