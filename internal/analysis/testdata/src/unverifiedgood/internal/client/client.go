// Package client is a sharoes-vet test fixture (path suffix
// internal/client): every flow below authenticates untrusted bytes
// before they cross the trust boundary, so unverified must stay silent.
package client

import (
	"github.com/sharoes/sharoes/internal/cache"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Client mirrors the real client shape.
type Client struct {
	store ssp.BlobStore
	cache *cache.Cache
	mek   sharocrypto.SymKey
	mvk   sharocrypto.VerifyKey
}

// Fetch opens (decrypt + verify) the blob before returning it.
func (c *Client) Fetch(key string, aad []byte) ([]byte, error) {
	blob, err := c.store.Get(wire.NSData, key)
	if err != nil {
		return nil, err
	}
	return meta.OpenVerified(c.mek, c.mvk, aad, blob)
}

// FetchSigned verifies the detached signature in place, then trusts the
// blob — the Verify-blesses-its-argument pattern.
func (c *Client) FetchSigned(key string, sig []byte) ([]byte, error) {
	blob, err := c.store.Get(wire.NSData, key)
	if err != nil {
		return nil, err
	}
	if err := c.mvk.Verify(blob, sig); err != nil {
		return nil, err
	}
	return blob, nil
}

// CacheOpened inserts only authenticated plaintext into the cache.
func (c *Client) CacheOpened(key string, aad []byte) error {
	blob, err := c.store.Get(wire.NSData, key)
	if err != nil {
		return err
	}
	pt, err := meta.OpenVerified(c.mek, c.mvk, aad, blob)
	if err != nil {
		return err
	}
	c.cache.Put(key, pt, int64(len(pt)))
	return nil
}

// FetchBlock opens a file block through the manifest that names it: the
// manifest's signature first (OpenVerified), then the block against the
// digest the manifest names for it (OpenBlock); only then is the block
// cached and returned.
func (c *Client) FetchBlock(manKey, blockKey string, manAAD, blockAAD []byte, idx int) ([]byte, error) {
	blob, err := c.store.Get(wire.NSData, manKey)
	if err != nil {
		return nil, err
	}
	pt, err := meta.OpenVerified(c.mek, c.mvk, manAAD, blob)
	if err != nil {
		return nil, err
	}
	man, err := meta.DecodeManifest(pt)
	if err != nil {
		return nil, err
	}
	sealed, err := c.store.Get(wire.NSData, blockKey)
	if err != nil {
		return nil, err
	}
	block, err := meta.OpenBlock(c.mek, blockAAD, sealed, man.Digests[idx])
	if err != nil {
		return nil, err
	}
	c.cache.Put(blockKey, block, int64(len(block)))
	return block, nil
}

// Raw returns unverified bytes behind an explicit, justified allow —
// the fixture that proves the directive (not the analyzer) silences it.
func (c *Client) Raw(key string) []byte {
	blob, _ := c.store.Get(wire.NSData, key)
	//sharoes-vet:allow unverified fixture exercises directive suppression
	return blob
}

// FetchHedged races two replica reads and authenticates on the racing
// path itself: each goroutine opens (decrypt + verify) its replica's
// blob before anything crosses the channel, so whichever replica wins,
// only verified plaintext ever reaches the return.
func (c *Client) FetchHedged(primary, hedge ssp.BlobStore, key string, aad []byte) ([]byte, error) {
	type result struct {
		pt  []byte
		err error
	}
	results := make(chan result, 2)
	for _, st := range []ssp.BlobStore{primary, hedge} {
		go func(st ssp.BlobStore) {
			blob, err := st.Get(wire.NSData, key)
			if err != nil {
				results <- result{nil, err}
				return
			}
			pt, err := meta.OpenVerified(c.mek, c.mvk, aad, blob)
			results <- result{pt, err}
		}(st)
	}
	var firstErr error
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		return r.pt, nil
	}
	return nil, firstErr
}

// Prefetch authenticates on the async path too: the background goroutine
// opens (decrypt + verify) each blob before it may touch the cache.
func (c *Client) Prefetch(keys []string, aad []byte) {
	for _, k := range keys {
		go func(k string) {
			blob, err := c.store.Get(wire.NSData, k)
			if err != nil {
				return
			}
			pt, err := meta.OpenVerified(c.mek, c.mvk, aad, blob)
			if err != nil {
				return
			}
			c.cache.Put(k, pt, int64(len(pt)))
		}(k)
	}
}

// CacheUnwrapped caches what the user's private key opens: RSA-OAEP under
// a key no other reader holds, a sanitizer told apart from SymKey.Open by
// its receiver.
func (c *Client) CacheUnwrapped(priv sharocrypto.PrivateKey, key string) error {
	blob, err := c.store.Get(wire.NSMeta, key)
	if err != nil {
		return err
	}
	pt, err := priv.OpenChunked(blob)
	if err != nil {
		return err
	}
	c.cache.Put(key, pt, int64(len(pt)))
	return nil
}

// signedSealer implements an opener of the client's sealing seam that
// ends in a signature check.
type signedSealer struct {
	mek sharocrypto.SymKey
	mvk sharocrypto.VerifyKey
}

// OpenManifest verifies and decrypts the SSP's bytes.
func (s signedSealer) OpenManifest(aad, blob []byte) ([]byte, error) {
	return meta.OpenVerified(s.mek, s.mvk, aad, blob)
}
