package cache

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentHammer drives every cache operation from many goroutines
// over an overlapping key space. It asserts nothing beyond "no race, no
// panic, no corrupted accounting" — run it under -race (make race / CI).
func TestConcurrentHammer(t *testing.T) {
	c := New(1 << 12) // small budget so eviction runs constantly
	const (
		workers = 8
		rounds  = 500
		keys    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("p%d/k%d", i%4, (w+i)%keys)
				switch i % 7 {
				case 0, 1, 2:
					c.Put(k, []byte(k), int64(len(k)+32))
				case 3, 4:
					if v, ok := c.Get(k); ok {
						if s, isBytes := v.([]byte); isBytes && string(s) != k {
							t.Errorf("cache returned wrong value for %s: %q", k, s)
							return
						}
					}
				case 5:
					c.Delete(k)
				default:
					c.Len()
				}
			}
		}(w)
	}
	wg.Wait()

	c.Clear()
	if n := c.Len(); n != 0 {
		t.Fatalf("len after clear = %d", n)
	}
}
