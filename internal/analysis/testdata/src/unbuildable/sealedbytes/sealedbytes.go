// Package sealedbytes is a fixture that must not type-check: a blob the
// SSP returned is a layout.Sealed, whose bytes only layout's openers
// read, so it cannot be used as plain bytes here.
package sealedbytes

import (
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Fetch returns a reply unopened.
func Fetch(st ssp.BlobStore) ([]byte, error) {
	blob, err := layout.Get(st, wire.NSData, "k")
	return []byte(blob), err
}
