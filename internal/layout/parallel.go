package layout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxCryptoWorkers bounds the worker pool for per-variant table crypto
// and per-block file crypto. Variant counts are small (a handful under
// Scheme-2, users+groups under Scheme-1) and block crypto is CPU-bound,
// so a low cap avoids goroutine churn without limiting speedup.
const maxCryptoWorkers = 8

// RunParallel executes fn(0..n-1) across a bounded worker pool and
// returns when every call has. Variants of a directory table, and blocks
// of a file, are sealed under their own nonce and AAD and share no
// state, so opening/sealing them is embarrassingly parallel; fn must
// only touch index-i state. With n == 1 (or one CPU) fn runs inline on
// the caller's goroutine.
func RunParallel(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers > maxCryptoWorkers {
		workers = maxCryptoWorkers
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
