// Package client is a sharoes-vet test fixture (path suffix
// internal/client): every flow below moves unverified SSP/wire bytes
// across the trust boundary and must be flagged by unverified.
package client

import (
	"github.com/sharoes/sharoes/internal/cache"
	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Client mirrors the real client shape: an untrusted store and a cache.
type Client struct {
	store ssp.BlobStore
	cache *cache.Cache
}

// Fetch returns an SSP read with no Open/Verify on the path.
func (c *Client) Fetch(key string) ([]byte, error) {
	blob, err := c.store.Get(wire.NSData, key)
	if err != nil {
		return nil, err
	}
	return blob, nil // finding: unverified bytes returned from exported API
}

// fetchRaw introduces the taint in a helper...
func (c *Client) fetchRaw(key string) ([]byte, error) {
	return c.store.Get(wire.NSData, key)
}

// FetchVia ...and the caller leaks it: the cross-function summary case.
func (c *Client) FetchVia(key string) ([]byte, error) {
	return c.fetchRaw(key) // finding: taint introduced in callee, sunk here
}

// CacheResponse inserts decoded-but-unverified wire payloads into the
// cache, poisoning later reads.
func (c *Client) CacheResponse(payload []byte) error {
	m, err := wire.DecodeV2(payload)
	if err != nil {
		return err
	}
	for _, it := range m.Resp.Items {
		c.cache.Put(it.Key, it.Val, int64(len(it.Val))) // finding: cache insert
	}
	return nil
}

// selectKey derives an object key from unverified bytes — the SSP would
// get to steer which key the client trusts.
func (c *Client) selectKey() sharocrypto.SymKey {
	blob, _ := c.store.Get(wire.NSMeta, "seed")
	seed, _ := sharocrypto.SymKeyFromBytes(blob)
	return cap.MEKFor(seed, "o") // finding: key-selection from unverified input
}

// Prefetch fills the cache from background goroutines — the async path the
// pipelined client makes cheap. Moving the fetch off the caller's
// goroutine must not launder the taint: the raw SSP bytes still land in
// trusted client state.
func (c *Client) Prefetch(keys []string) {
	for _, k := range keys {
		go func(k string) {
			blob, err := c.store.Get(wire.NSData, k)
			if err != nil {
				return
			}
			c.cache.Put(k, blob, int64(len(blob))) // finding: cache insert on async path
		}(k)
	}
}
