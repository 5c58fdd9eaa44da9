package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"runtime"
	"sync"
	"time"
)

// The sandbox's effective core speed is not constant: a fixed busy loop
// runs anywhere between 0.65x and 1.0x of its best rate, switching level
// every second or so and sitting low for ten seconds and more at times,
// with no steal time reported (see README.md). A CPU-bound workload's
// wall time follows it, so two sets of runs of the same code can differ
// by a fifth. The loopback workloads therefore run a fixed reference
// kernel between rounds and report their times on the reference machine:
// measured time x (kernel rate during the pass / refRate). The WAN
// workloads wait on timers for nine tenths of their wall and are reported
// as measured.

// refRate is the kernel's iterations per second and thread on the
// reference machine: between this sandbox's noisy hours (about 10500) and
// its quiet ones (about 13300), so the correction is 0.95 to 1.2 here.
const refRate = 11000.0

// calibSlice is how long the kernel is measured after each set-up and
// round. It first runs for calibWarm unmeasured: a processor that the
// round left idle takes tens of milliseconds to come back to speed, and
// how idle a round leaves it is the workload's business, not the
// machine's.
const (
	calibWarm  = 50 * time.Millisecond
	calibSlice = 100 * time.Millisecond
)

// refKernel is a fixed stdlib-only unit of CPU work shaped like what the
// stack does per message: a signature made and checked, a block sealed,
// a buffer copied. It shares no code with the stack and allocates
// nothing, so neither a change under test nor the heap and GC pacing the
// workload leaves behind can move it: only the core's speed does
// (bench_test.go checks the allocations).
type refKernel struct {
	priv   ed25519.PrivateKey
	pub    ed25519.PublicKey
	gcm    cipher.AEAD
	nonce  [12]byte
	src    []byte
	sealed []byte
	sink   []byte
}

func newRefKernel() *refKernel {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	blk, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		panic(err) // AES always has a GCM mode
	}
	const n = 16 << 10
	return &refKernel{priv: priv, pub: priv.Public().(ed25519.PublicKey), gcm: gcm,
		src: make([]byte, n), sealed: make([]byte, 0, n+gcm.Overhead()), sink: make([]byte, n+gcm.Overhead())}
}

func (k *refKernel) once() {
	sig := ed25519.Sign(k.priv, k.src[:256])
	ed25519.Verify(k.pub, k.src[:256], sig)
	k.sealed = k.gcm.Seal(k.sealed[:0], k.nonce[:], k.src, nil)
	copy(k.sink, k.sealed)
}

// machineSpeed runs the kernel on every processor the program may use
// for calibWarm, unmeasured, and then for calibSlice, and returns the
// measured rate relative to the reference machine's.
func machineSpeed() float64 {
	threads := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	rates := make([]float64, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			k := newRefKernel()
			for time.Since(start) < calibWarm {
				k.once()
			}
			n, from := 0, time.Now()
			for time.Since(start) < calibWarm+calibSlice {
				k.once()
				n++
			}
			rates[t] = float64(n) / time.Since(from).Seconds()
		}(t)
	}
	wg.Wait()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / (refRate * float64(threads))
}
