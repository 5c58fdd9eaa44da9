// Package keyleakbad is a sharoes-vet test fixture: every print below
// leaks key material and must be flagged by the keyleak analyzer.
package keyleakbad

import (
	"fmt"
	"log"

	"github.com/sharoes/sharoes/internal/sharocrypto"
)

type holder struct {
	K sharocrypto.SymKey
}

// Bad exercises each leak form.
func Bad(l *log.Logger) error {
	k := sharocrypto.NewSymKey()
	fmt.Printf("key=%v\n", k)             // leak: key-typed value
	fmt.Println(k.Marshal())              // leak: raw key bytes
	log.Printf("byte %d", k.Marshal()[0]) // leak: single key byte

	var h holder
	l.Printf("holder %v", h) // leak: struct containing a key

	sk, _ := sharocrypto.NewSigningPair()
	return fmt.Errorf("seed %x", sk.Marshal()) // leak: marshalled secret
}
