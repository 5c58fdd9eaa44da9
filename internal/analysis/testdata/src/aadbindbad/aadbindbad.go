// Package aadbindbad is a sharoes-vet test fixture: every Seal/Open below
// passes a statically-empty AAD and must be flagged by aadbind.
package aadbindbad

import "github.com/sharoes/sharoes/internal/sharocrypto"

// Bad exercises each empty-AAD form.
func Bad() ([]byte, error) {
	k := sharocrypto.NewSymKey()
	blob := k.Seal([]byte("x"), nil)        // nil AAD
	_ = k.Seal([]byte("x"), []byte{})       // empty composite literal
	_ = k.AppendSeal(nil, []byte("x"), nil) // the append form, nil AAD
	return k.Open(blob, []byte(""))         // empty string conversion
}
