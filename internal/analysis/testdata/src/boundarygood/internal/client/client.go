// Package client is a sharoes-vet test fixture (path suffix
// internal/client): every call below is a near miss of the boundary
// check's list, or carries a reviewed allow directive, and must not be
// flagged under Run.
package client

import (
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Session reads through layout, whose replies only layout opens.
type Session struct {
	store ssp.BlobStore
	eng   layout.Engine
	out   []wire.KV
}

// Manifest fetches and opens a manifest: the read is layout's.
func (s *Session) Manifest(m *meta.Metadata) (*meta.Manifest, error) {
	blob, err := layout.Get(s.store, wire.NSData, "f/1/m")
	if err != nil {
		return nil, err
	}
	return layout.OpenManifest(s.eng, nil, m.Attr.Inode, m, blob)
}

// Publish writes public keys and a manifest, which carry no secret, and
// deletes a listing checked against its prefix.
func (s *Session) Publish(vk sharocrypto.VerifyKey, pub sharocrypto.PublicKey, man *meta.Manifest) error {
	s.out = append(s.out,
		wire.KV{NS: wire.NSData, Key: "vk", Val: vk.Marshal()},
		wire.KV{NS: wire.NSData, Key: "pub", Val: pub.Marshal()},
		wire.KV{NS: wire.NSData, Key: "man", Val: man.Encode()})
	items, err := layout.List(s.store, wire.NSData, "f/1/")
	if err != nil {
		return err
	}
	for _, it := range items {
		s.out = append(s.out, wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
	}
	return s.store.BatchPut(s.out)
}

// Metadata is this package's own type: its Encode is not meta's.
type Metadata struct{ name string }

// Encode implements nothing of meta's.
func (m *Metadata) Encode() []byte { return []byte(m.name) }

// Fingerprint takes a key's raw bytes at a site the list does not name,
// under a reviewed allow directive: only the digest leaves.
func Fingerprint(k sharocrypto.SymKey) [32]byte {
	//sharoes-vet:allow boundary fixture: reviewed, only the digest leaves
	return sharocrypto.ContentHash(k.Marshal())
}

// Get is this package's own read, of what it already holds.
func (s *Session) Get(m *Metadata) []byte { return m.Encode() }

// Local calls a Get and an Encode that are not the store's or meta's.
func (s *Session) Local() []byte { return s.Get(&Metadata{name: "x"}) }
