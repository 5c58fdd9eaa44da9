package obs

import "testing"

// BenchmarkCounterInc is one Counter.Inc on a held handle, from one
// goroutine and from GOMAXPROCS goroutines sharing the counter.
func BenchmarkCounterInc(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var c Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var c Counter
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}

// BenchmarkRegistryCounter is a registry lookup followed by Inc, the
// shape of the client's and the server's per-call counters.
func BenchmarkRegistryCounter(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{"a.calls", "b.calls", "c.calls", "d.calls"} {
		r.Counter(name)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Counter("b.calls").Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Counter("b.calls").Inc()
			}
		})
	})
}
