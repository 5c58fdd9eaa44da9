// Package client drops fault-relevant errors every way errdrop knows
// how to catch. Expected findings, in source order:
//
//  1. Put error discarded (bare ExprStmt)
//  2. Put error discarded via _
//  3. Get error discarded via _ in a tuple destructure
//  4. deferred Close discards its error
//  5. Flush error lost in a goroutine
//  6. Put error assigned to the named result, then overridden by return nil
//  7. local wrapper's derived error discarded
//  8. mutually recursive wrapper's derived error discarded
//  9. os.File.Write error discarded on a write path
//  10. os.File.Close error discarded on a write path
package client

import (
	"os"

	"github.com/sharoes/sharoes/internal/analysis/testdata/src/errdropbad/internal/ssp"
)

// PutDiscard drops the store-write error on the floor.
func PutDiscard(c *ssp.Client, v []byte) {
	c.Put("k", v) // want errdrop: error discarded
}

// PutUnderscore discards explicitly, without a justification.
func PutUnderscore(c *ssp.Client, v []byte) {
	_ = c.Put("k", v) // want errdrop: discarded via _
}

// GetDrop keeps the value and throws away the verification error.
func GetDrop(c *ssp.Client) []byte {
	v, _ := c.Get("k") // want errdrop: discarded via _
	return v
}

// DeferClose loses the final flush implied by Close.
func DeferClose(c *ssp.Client) {
	defer c.Close() // want errdrop: deferred Close
}

// GoFlush spawns the flush where no caller can see it fail.
func GoFlush(c *ssp.Client) {
	go c.Flush() // want errdrop: lost in goroutine
}

// Overwritten assigns the fault error to the named result and then
// returns nil explicitly, silently dropping it.
func Overwritten(c *ssp.Client, v []byte) (err error) {
	err = c.Put("k", v) // want errdrop: never read
	return nil
}

// flushAll is a local wrapper: its error derives from ssp.Flush, so the
// effect fixpoint marks it fault-relevant too.
func flushAll(c *ssp.Client) error {
	return c.Flush()
}

// UseWrapper discards the wrapper's derived error.
func UseWrapper(c *ssp.Client) {
	flushAll(c) // want errdrop: wrapper error discarded
}

// flushEven and flushOdd are mutually recursive wrappers of ssp.Flush:
// the effect fixpoint must converge on the cycle and still mark both
// fault-relevant.
func flushEven(c *ssp.Client, n int) error {
	if n == 0 {
		return c.Flush()
	}
	return flushOdd(c, n-1)
}

func flushOdd(c *ssp.Client, n int) error { return flushEven(c, n-1) }

// UseCycle discards the recursive wrapper's derived error.
func UseCycle(c *ssp.Client) {
	flushOdd(c, 3) // want errdrop: recursive wrapper error discarded
}

// WriteTemp is a write path (os.Create in scope), so both the Write and
// the Close carry data-loss errors.
func WriteTemp(path string, v []byte) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	f.Write(v) // want errdrop: os.File.Write
	f.Close()  // want errdrop: os.File.Close on a write path
}
