// Package keyegressbad is a sharoes-vet test fixture: every flow below
// moves plaintext key material toward the SSP or disk without sealing,
// and must be flagged by keyegress.
package keyegressbad

import (
	"encoding/base64"
	"os"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// BadKV embeds raw key bytes in a wire KV.
func BadKV(k sharocrypto.SymKey) wire.KV {
	return wire.KV{NS: wire.NSData, Key: "k", Val: k[:]} // finding: wire.KV literal
}

// BadEncode runs a request holding raw key bytes through the encoder.
func BadEncode(k sharocrypto.SymKey) []byte {
	kb := k[:]
	q := &wire.Request{Op: wire.OpPut, NS: wire.NSData, Key: "k", Val: kb} // finding: wire.Request literal
	return q.EncodeV2()                                                    // finding: wire encoder
}

// BadStore writes raw key bytes to the SSP.
func BadStore(st ssp.BlobStore, k sharocrypto.SymKey) error {
	return st.Put(wire.NSData, "k", k[:]) // finding: store write
}

// BadFile launders marshalled key bytes through base64 before writing
// them to disk — encoding is not sealing.
func BadFile(path string, k sharocrypto.PrivateKey) error {
	enc := base64.StdEncoding.EncodeToString(k.Marshal())
	return os.WriteFile(path, []byte(enc), 0o644) // finding: file write
}

// BadAsyncStore ships raw key bytes to the SSP from a write-behind-style
// background goroutine — asynchrony must not launder the egress.
func BadAsyncStore(st ssp.BlobStore, k sharocrypto.SymKey, done chan<- error) {
	go func() {
		done <- st.Put(wire.NSData, "k", k[:]) // finding: store write on async path
	}()
}
