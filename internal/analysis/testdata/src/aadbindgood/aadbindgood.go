// Package aadbindgood is a sharoes-vet test fixture: AADs bind a context,
// or the site carries a reviewed allow directive; aadbind must stay
// silent under Run.
package aadbindgood

import "github.com/sharoes/sharoes/internal/sharocrypto"

// Good binds contextual AADs and uses one reviewed suppression.
func Good(ctx []byte) ([]byte, error) {
	k := sharocrypto.NewSymKey()
	blob := k.Seal([]byte("x"), ctx) // dynamic AAD: fine
	_ = k.Seal([]byte("x"), []byte("meta|1|u/alice"))
	_ = k.AppendSeal(nil, []byte("x"), ctx)
	//sharoes-vet:allow aadbind fixture: reviewed, value is self-describing
	_ = k.Seal([]byte("x"), nil)
	return k.Open(blob, ctx)
}
