package baseline

import (
	"errors"
	"fmt"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

const (
	ckMeta  = "M|"
	ckTable = "T|"
	ckBlock = "B|"
)

// fetchMeta retrieves and (per mode) decrypts a metadata object.
func (s *Session) fetchMeta(ino types.Inode) (*bMeta, error) {
	key := ckMeta + s.metaKey(ino)
	if v, ok := s.cache.Get(key); ok {
		return v.(*bMeta), nil
	}
	var m *bMeta
	switch s.mode {
	case NoEncMDD, NoEncMD:
		blob, err := s.store.Get(wire.NSMeta, s.metaKey(ino))
		if errors.Is(err, wire.ErrNotFound) {
			return nil, types.ErrNotExist
		}
		if err != nil {
			return nil, err
		}
		if m, err = decodeBMeta(blob); err != nil {
			return nil, err
		}
		// NO-ENC baselines store metadata in plaintext with no MAC — the
		// measured design point is exactly "skip the trust boundary".
		s.cache.Put(key, m, int64(len(blob))) //sharoes-vet:allow unverified NO-ENC baseline caches unauthenticated metadata by design
	case Public:
		blob, err := s.store.Get(wire.NSMeta, s.metaKey(ino))
		if errors.Is(err, wire.ErrNotFound) {
			return nil, types.ErrNotExist
		}
		if err != nil {
			return nil, err
		}
		// The expensive path the paper measures: every stat performs
		// per-chunk private-key decryptions of the whole object.
		stop := s.crypto()
		pt, err := s.user.Priv.OpenChunked(blob)
		stop()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", types.ErrTampered, err)
		}
		md, err := decodeBMeta(pt)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, md, int64(len(blob)))
		m = md
	case PubOpt:
		items, err := s.store.BatchGet([]wire.KV{
			{NS: wire.NSMeta, Key: s.metaKey(ino)},
			{NS: wire.NSMeta, Key: s.wrapKey(ino, s.user.ID)},
		})
		if err != nil {
			return nil, err
		}
		if len(items) < 2 {
			return nil, types.ErrNotExist
		}
		var body, wrapped []byte
		for _, it := range items {
			if it.Key == s.metaKey(ino) {
				body = it.Val
			} else {
				wrapped = it.Val
			}
		}
		// One private-key operation to unwrap the 16-byte key, then a
		// symmetric decryption of the object (the PUB-OPT optimization).
		stop := s.crypto()
		keyBytes, err := s.user.Priv.OpenChunked(wrapped)
		var mk sharocrypto.SymKey
		if err == nil {
			mk, err = sharocrypto.SymKeyFromBytes(keyBytes)
		}
		var pt []byte
		if err == nil {
			pt, err = mk.Open(body, pubOptMetaAAD(s.fsid, ino))
		}
		stop()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", types.ErrTampered, err)
		}
		md, err := decodeBMeta(pt)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, md, int64(len(body)))
		m = md
	default:
		return nil, fmt.Errorf("baseline: unknown mode %v", s.mode)
	}
	return m, nil
}

// sealMetaKVs produces the stored form(s) of a metadata object: one
// plaintext copy, N public-key copies (PUBLIC), or a symmetric body plus N
// wrapped keys (PUB-OPT).
func (s *Session) sealMetaKVs(m *bMeta) ([]wire.KV, error) {
	return sealMetaKVs(s.mode, s.fsid, s.reg, s.users, m, s.crypto)
}

func sealMetaKVs(mode Mode, fsid string, reg registryLike, users []types.UserID, m *bMeta, timer func() func()) ([]wire.KV, error) {
	if timer == nil {
		timer = func() func() { return func() {} }
	}
	plain := m.encode()
	base := fmt.Sprintf("%s/m/%d", fsid, uint64(m.Attr.Inode))
	switch mode {
	case NoEncMDD, NoEncMD:
		return []wire.KV{{NS: wire.NSMeta, Key: base, Val: plain}}, nil
	case Public:
		kvs := make([]wire.KV, 0, len(users))
		stop := timer()
		defer stop()
		for _, u := range users {
			pub, err := reg.UserKey(u)
			if err != nil {
				return nil, err
			}
			blob, err := pub.SealChunked(plain)
			if err != nil {
				return nil, err
			}
			kvs = append(kvs, wire.KV{NS: wire.NSMeta, Key: base + "/u/" + string(u), Val: blob})
		}
		return kvs, nil
	case PubOpt:
		stop := timer()
		defer stop()
		mk := sharocrypto.NewSymKey()
		kvs := []wire.KV{{NS: wire.NSMeta, Key: base, Val: mk.Seal(plain, pubOptMetaAAD(fsid, m.Attr.Inode))}}
		for _, u := range users {
			pub, err := reg.UserKey(u)
			if err != nil {
				return nil, err
			}
			wrapped, err := pub.SealChunked(mk[:])
			if err != nil {
				return nil, err
			}
			kvs = append(kvs, wire.KV{NS: wire.NSMeta, Key: fmt.Sprintf("%s/mk/%d/u/%s", fsid, uint64(m.Attr.Inode), u), Val: wrapped})
		}
		return kvs, nil
	default:
		return nil, fmt.Errorf("baseline: unknown mode %v", mode)
	}
}

// registryLike is the slice of keys.Registry needed by the codec.
type registryLike interface {
	UserKey(types.UserID) (sharocrypto.PublicKey, error)
}

// deleteMetaKVs removes every stored form of a metadata object.
func (s *Session) deleteMetaKVs(ino types.Inode) []wire.KV {
	base := fmt.Sprintf("%s/m/%d", s.fsid, uint64(ino))
	switch s.mode {
	case Public:
		kvs := make([]wire.KV, 0, len(s.users))
		for _, u := range s.users {
			kvs = append(kvs, wire.KV{NS: wire.NSMeta, Key: base + "/u/" + string(u), Delete: true})
		}
		return kvs
	case PubOpt:
		kvs := []wire.KV{{NS: wire.NSMeta, Key: base, Delete: true}}
		for _, u := range s.users {
			kvs = append(kvs, wire.KV{NS: wire.NSMeta, Key: s.wrapKey(ino, u), Delete: true})
		}
		return kvs
	default:
		return []wire.KV{{NS: wire.NSMeta, Key: base, Delete: true}}
	}
}

// sealData encrypts a data blob (file block or directory table) with the
// object's DEK, or passes it through for NO-ENC-MD-D.
func (s *Session) sealData(m *bMeta, aad, plain []byte) []byte {
	if !s.mode.EncryptsData() {
		return plain
	}
	stop := s.crypto()
	defer stop()
	return m.DEK.Seal(plain, aad)
}

// openData reverses sealData.
func (s *Session) openData(m *bMeta, aad, blob []byte) ([]byte, error) {
	if !s.mode.EncryptsData() {
		return blob, nil
	}
	stop := s.crypto()
	defer stop()
	pt, err := m.DEK.Open(blob, aad)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", types.ErrTampered, err)
	}
	return pt, nil
}

// fetchTable retrieves a directory table. The returned table is the
// caller's to mutate; the cache keeps its own copy.
func (s *Session) fetchTable(m *bMeta) (*bTable, error) {
	key := ckTable + s.tableKey(m.Attr.Inode)
	if v, ok := s.cache.Get(key); ok {
		return v.(*bTable).clone(), nil
	}
	blob, err := s.store.Get(wire.NSData, s.tableKey(m.Attr.Inode))
	if errors.Is(err, wire.ErrNotFound) {
		return newBTable(), nil
	}
	if err != nil {
		return nil, err
	}
	pt, err := s.openData(m, tableAAD(m.Attr.Inode), blob)
	if err != nil {
		return nil, err
	}
	t, err := decodeBTable(pt)
	if err != nil {
		return nil, err
	}
	// In the NO-ENC modes openData passes the blob through unauthenticated;
	// the encrypted modes Open() it above.
	s.cache.Put(key, t, int64(len(blob))) //sharoes-vet:allow unverified NO-ENC baseline caches unauthenticated tables by design
	return t.clone(), nil
}

// tableKV seals a table for storage.
func (s *Session) tableKV(m *bMeta, t *bTable) wire.KV {
	return wire.KV{NS: wire.NSData, Key: s.tableKey(m.Attr.Inode), Val: s.sealData(m, tableAAD(m.Attr.Inode), t.encode())}
}

// cacheTable writes a table a commit stored, as kv, through to the cache,
// matching the Sharoes client's behaviour so the two implementations pay
// symmetric network costs.
func (s *Session) cacheTable(t *bTable, kv wire.KV) {
	s.cache.Put(ckTable+kv.Key, t.clone(), int64(len(kv.Val)))
}

func tableAAD(ino types.Inode) []byte { return []byte(fmt.Sprintf("bt|%d", uint64(ino))) }

// pubOptMetaAAD binds a PUB-OPT symmetric metadata body to its filesystem
// and inode, so a compromised store cannot answer a metadata fetch with a
// different object's validly-sealed body.
func pubOptMetaAAD(fsid string, ino types.Inode) []byte {
	return []byte(fmt.Sprintf("bm|%s|%d", fsid, uint64(ino)))
}
func blockAAD(ino types.Inode, idx uint32) []byte {
	return []byte(fmt.Sprintf("bb|%d|%d", uint64(ino), idx))
}
