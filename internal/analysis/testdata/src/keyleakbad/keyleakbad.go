// Package keyleakbad is a sharoes-vet test fixture: each Marshal below
// takes a key's raw bytes at a site boundary does not list, and must be
// flagged. The other prints format a key value, which prints redacted,
// alone or as a field.
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
	fmt.Printf("key=%v\n", k)             // prints [REDACTED]
	fmt.Println(k.Marshal())              // leak: raw key bytes
	log.Printf("byte %d", k.Marshal()[0]) // leak: single key byte

	var h holder
	l.Printf("holder %v", h) // prints {[REDACTED]}

	sk, _ := sharocrypto.NewSigningPair()
	return fmt.Errorf("seed %x", sk.Marshal()) // leak: marshalled secret
}
