// Package keyslice is a fixture that must not type-check: a SymKey's
// bytes are unexported, so outside sharocrypto it cannot be sliced into
// a KV bound for the SSP.
package keyslice

import (
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/wire"
)

// Ship puts a raw key in a KV.
func Ship(k sharocrypto.SymKey) wire.KV {
	return wire.KV{NS: wire.NSData, Key: "k", Val: k[:]}
}
