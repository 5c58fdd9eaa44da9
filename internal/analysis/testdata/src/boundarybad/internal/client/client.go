// Package client is a sharoes-vet test fixture (path suffix
// internal/client, a key-holding package): every call below reads the
// SSP or hands out a raw secret away from the listed boundary sites, and
// must be flagged by boundary.
package client

import (
	"encoding/base64"
	"os"

	"github.com/sharoes/sharoes/internal/cache"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Client mirrors the real client shape: an untrusted store and a cache.
type Client struct {
	store ssp.BlobStore
	cache *cache.Cache
	out   []wire.KV
}

// Fetch returns an SSP read as it came.
func (c *Client) Fetch(key string) ([]byte, error) {
	return c.store.Get(wire.NSData, key) // finding: SSP read
}

// Prefetch reads the SSP from background goroutines: moving the read off
// the caller's goroutine does not move it off the list.
func (c *Client) Prefetch(keys []string) {
	for _, k := range keys {
		go func(k string) {
			items, err := c.store.BatchGet([]wire.KV{{NS: wire.NSData, Key: k}}) // finding: SSP read on an async path
			if err == nil && len(items) == 1 {
				c.cache.Put(k, items[0].Val, int64(len(items[0].Val)))
			}
		}(k)
	}
}

// Purge deletes whatever the SSP lists, without the prefix check.
func (c *Client) Purge(prefix string) error {
	items, err := c.store.List(wire.NSData, prefix) // finding: SSP read
	if err != nil {
		return err
	}
	for _, it := range items {
		c.out = append(c.out, wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
	}
	return nil
}

// CacheResponse caches decoded wire payloads.
func (c *Client) CacheResponse(payload []byte) error {
	m, err := wire.DecodeV2(payload) // finding: wire-frame read
	if err != nil {
		return err
	}
	for _, it := range m.Resp.Items {
		c.cache.Put(it.Key, it.Val, int64(len(it.Val)))
	}
	return nil
}

// ShipKey puts a DEK's raw bytes in a KV bound for the SSP.
func (c *Client) ShipKey(k sharocrypto.SymKey) {
	c.out = append(c.out, wire.KV{NS: wire.NSData, Key: "k", Val: k.Marshal()}) // finding: raw secret
}

// ShipMeta puts a new object's plaintext metadata, DEK, seeds and
// signing keys included, in a KV bound for the SSP.
func (c *Client) ShipMeta(child *meta.Metadata) {
	c.out = append(c.out, wire.KV{NS: wire.NSMeta, Key: "x", Val: child.Encode()}) // finding: plaintext of a key-bearing object
}

// SaveKey launders a marshalled private key through base64 onto disk.
func SaveKey(path string, k sharocrypto.PrivateKey) error {
	enc := base64.StdEncoding.EncodeToString(k.Marshal()) // finding: raw secret
	return os.WriteFile(path, []byte(enc), 0o644)
}

// seed is read at package initialization, outside any function.
var seed, _ = ssp.NewMemStore().Get(wire.NSMeta, "seed") // finding: SSP read in a package-level declaration
