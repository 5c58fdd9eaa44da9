// Package layout is a sharoes-vet test fixture (path suffix
// internal/layout): Get is a listed boundary site for one SSP read, and
// its second read must be flagged by boundary.
package layout

import (
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Get reads (ns, key) twice; the list allows it once.
func Get(st ssp.BlobStore, ns wire.NS, key string) ([]byte, error) {
	if _, err := st.Get(ns, key); err != nil {
		return nil, err
	}
	return st.Get(ns, key) // finding: second SSP read at a site listed for one
}
