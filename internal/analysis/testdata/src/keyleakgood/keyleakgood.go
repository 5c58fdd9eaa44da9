// Package keyleakgood is a sharoes-vet test fixture: key values are in
// scope but no key's raw bytes are taken, so boundary must stay silent.
package keyleakgood

import (
	"fmt"
	"log"

	"github.com/sharoes/sharoes/internal/sharocrypto"
)

// Good prints only derived, non-secret facts about keys.
func Good(l *log.Logger) error {
	k := sharocrypto.NewSymKey()
	fmt.Printf("zero=%v size=%d\n", k.IsZero(), sharocrypto.SymKeySize)

	_, vk := sharocrypto.NewSigningPair()
	l.Printf("verify key %x", vk.Marshal()) // VerifyKey is public, not secret

	h := sharocrypto.ContentHash([]byte("data"))
	log.Printf("hash %x", h)
	return fmt.Errorf("object %d not found", 42)
}
