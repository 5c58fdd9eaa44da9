// Package keyequal is a fixture that must not type-check: == on a
// SymKey would compare the handles to its bytes, not the bytes, so it
// does not build (use Equal).
package keyequal

import "github.com/sharoes/sharoes/internal/sharocrypto"

// Same compares two keys with ==.
func Same(a, b sharocrypto.SymKey) bool { return a == b }
