package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New(1000)
	c.Put("a", "va", 10)
	if v, ok := c.Get("a"); !ok || v != "va" {
		t.Errorf("get = %v, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("missing key hit")
	}
	if c.Len() != 1 || c.Used() != 10 {
		t.Errorf("len=%d used=%d", c.Len(), c.Used())
	}
}

func TestReplaceAdjustsSize(t *testing.T) {
	c := New(1000)
	c.Put("a", "v1", 10)
	c.Put("a", "v2", 30)
	if c.Used() != 30 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
	if v, _ := c.Get("a"); v != "v2" {
		t.Errorf("v = %v", v)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	c := New(30)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	c.Get("a") // a is now most recent; b is oldest
	c.Put("d", 4, 10)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(100)
	c.Put("big", 1, 200)
	if _, ok := c.Get("big"); ok {
		t.Error("oversized value cached")
	}
	if c.Used() != 0 {
		t.Errorf("used = %d", c.Used())
	}
}

func TestZeroBudgetDisables(t *testing.T) {
	c := New(0)
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestUnlimitedBudget(t *testing.T) {
	c := New(-1)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 1<<20)
	}
	if c.Len() != 1000 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestDelete(t *testing.T) {
	c := New(-1)
	c.Put("f/1/0/0", 1, 10)
	c.Put("f/1/0/1", 2, 10)
	c.Delete("f/1/0/0")
	if _, ok := c.Get("f/1/0/0"); ok {
		t.Error("deleted key hit")
	}
	if _, ok := c.Get("f/1/0/1"); !ok {
		t.Error("delete over-deleted")
	}
	c.Delete("nonexistent") // no-op
	if c.Len() != 1 || c.Used() != 10 {
		t.Errorf("len=%d used=%d, want 1 and 10", c.Len(), c.Used())
	}
}

func TestHolds(t *testing.T) {
	for _, tc := range []struct {
		budget, size int64
		want         bool
	}{
		{0, 0, false}, {0, 1, false}, // disabled: keeps nothing
		{-1, 1 << 40, true},                 // unlimited
		{100, 100, true}, {100, 101, false}, // finite: up to the whole budget
	} {
		c := New(tc.budget)
		if got := c.Holds(tc.size); got != tc.want {
			t.Errorf("New(%d).Holds(%d) = %v, want %v", tc.budget, tc.size, got, tc.want)
		}
		c.Put("k", 1, tc.size)
		if _, kept := c.Get("k"); kept != tc.want {
			t.Errorf("New(%d): Put of %d kept=%v, Holds said %v", tc.budget, tc.size, kept, tc.want)
		}
	}
}

func TestClear(t *testing.T) {
	c := New(-1)
	c.Put("a", 1, 10)
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("clear incomplete")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived clear")
	}
}

func TestStats(t *testing.T) {
	c := New(-1)
	c.Put("a", 1, 1)
	c.Get("a")
	c.Get("a")
	c.Get("b")
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(10000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%50)
				c.Put(key, i, 10)
				c.Get(key)
				if i%100 == 0 {
					c.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	// Invariant: used never exceeds budget.
	if c.Used() > 10000 {
		t.Errorf("used %d exceeds budget", c.Used())
	}
}

func TestEvictionNeverExceedsBudget(t *testing.T) {
	c := New(100)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, int64(i%40))
		if c.Used() > 100 {
			t.Fatalf("budget exceeded: %d", c.Used())
		}
	}
}
