package client

import (
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// fetchManifest retrieves and opens a file's manifest: from the cache,
// from pre (the reply that carried the metadata) or by a fetch of its own.
func (s *Session) fetchManifest(r ref, m *meta.Metadata, pre replyIndex) (*meta.Manifest, error) {
	if m.Keys.DEK.IsZero() || m.Keys.DVK.IsZero() {
		return nil, types.ErrPermission
	}
	if v, ok := s.cache.Get(ckManifest + meta.ManifestKey(r.ino)); ok {
		return v.(*meta.Manifest), nil
	}
	blob, ok, err := s.blobOf(pre, wire.NSData, meta.ManifestKey(r.ino))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: manifest missing", types.ErrTampered)
	}
	return s.openManifest(r, m, blob)
}

// openManifest verifies, decodes and caches a fetched manifest blob.
func (s *Session) openManifest(r ref, m *meta.Metadata, blob []byte) (*meta.Manifest, error) {
	stop := s.crypto("open-manifest")
	man, err := verifyManifest(r, m, blob)
	stop()
	if err != nil {
		return nil, err
	}
	s.cache.Put(ckManifest+meta.ManifestKey(r.ino), man, int64(len(blob)))
	return man, nil
}

// verifyManifest checks a manifest blob against the writer's signature
// under the file's own DEK/DVK and generation-bound AAD, then decodes it.
func verifyManifest(r ref, m *meta.Metadata, blob []byte) (*meta.Manifest, error) {
	pt, err := meta.OpenVerified(m.Keys.DEK, m.Keys.DVK, meta.ManifestAAD(r.ino, m.Attr.DataGen), blob)
	if err != nil {
		return nil, err
	}
	return meta.DecodeManifest(pt)
}

// sealFileData seals a file's full content as blocks plus manifest,
// returning the KVs to store and priming the cache with the plaintext.
// Larger files are divided into blocks, each encrypted separately, so
// later updates need not re-encrypt the whole file (paper §II-B).
func (s *Session) sealFileData(m *meta.Metadata, data []byte, mtime int64) ([]wire.KV, error) {
	if m.Keys.DEK.IsZero() || m.Keys.DSK.IsZero() {
		return nil, types.ErrPermission
	}
	bs := int(s.blockSize)
	man := &meta.Manifest{Size: uint64(len(data)), BlockSize: s.blockSize, NBlocks: uint32((len(data) + bs - 1) / bs), MTime: mtime}
	return s.sealBlocks(m, man, 0, data), nil
}

// sealBlocks seals data as the file's blocks from block first on, plus
// the new manifest, under one CRYPTO stopwatch (the blocks are sealed
// across the worker pool inside layout.SealFileKVs), then — back on the
// session goroutine — primes the cache with the plaintext it was given.
func (s *Session) sealBlocks(m *meta.Metadata, man *meta.Manifest, first uint32, data []byte) []wire.KV {
	stop := s.crypto("seal-data")
	kvs := layout.SealFileKVs(m, man, first, data)
	stop()

	bs := int(s.blockSize)
	blocks, sealedMan := kvs[:len(kvs)-1], kvs[len(kvs)-1]
	for i, kv := range blocks {
		plain := data[i*bs : min((i+1)*bs, len(data))]
		// The cache keeps its own copy (data belongs to the caller), so
		// ask before making one it would drop.
		if !s.cache.Holds(int64(len(plain))) {
			continue
		}
		s.cache.Put(ckBlock+kv.Key, append([]byte(nil), plain...), int64(len(plain)))
	}
	s.cache.Put(ckManifest+sealedMan.Key, man, int64(len(sealedMan.Val)))
	return kvs
}

// readBlocks fetches, verifies and decrypts the blocks [from, to) of a
// file, using the cache and batching all misses into one round trip.
// Blocks are independent — each carries its own nonce, AAD and signature
// — so the fetched ones are verified and opened across the worker pool;
// the closure writes only its own slot, and the cache is touched only
// after the join, by this goroutine, with blocks that verified.
func (s *Session) readBlocks(r ref, m *meta.Metadata, man *meta.Manifest, from, to uint32) ([][]byte, error) {
	out := make([][]byte, to-from)
	var missing []wire.KV
	var slots []int // missing[i] is block from+slots[i]
	for i := from; i < to; i++ {
		key := meta.BlockKey(r.ino, m.Attr.DataGen, i)
		if v, ok := s.cache.Get(ckBlock + key); ok {
			out[i-from] = v.([]byte)
			continue
		}
		missing = append(missing, wire.KV{NS: wire.NSData, Key: key})
		slots = append(slots, int(i-from))
	}
	if len(missing) == 0 {
		return out, nil
	}
	blobs, err := s.fetch(missing)
	if err != nil {
		return nil, err
	}
	sealed := make([][]byte, len(missing))
	absent := 0
	for i, kv := range missing {
		var ok bool
		if sealed[i], ok = blobs.get(kv.NS, kv.Key); !ok {
			absent++
		}
	}
	if absent > 0 {
		return nil, fmt.Errorf("%w: %d of %d blocks missing", types.ErrTampered, absent, len(missing))
	}
	errs := make([]error, len(missing))
	stop := s.crypto("open-block")
	layout.RunParallel(len(missing), func(i int) {
		aad := meta.BlockAAD(r.ino, m.Attr.DataGen, from+uint32(slots[i]))
		out[slots[i]], errs[i] = meta.OpenVerified(m.Keys.DEK, m.Keys.DVK, aad, sealed[i])
	})
	stop()
	for i, kv := range missing {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pt := out[slots[i]]
		s.cache.Put(ckBlock+kv.Key, pt, int64(len(pt)))
	}
	return out, nil
}

// ReadFile implements vfs.FS: obtain the encrypted data blocks, verify the
// writer's signatures and decrypt (paper Figure 8, read row). Metadata and
// manifest are fetched in one batched round trip.
func (s *Session) ReadFile(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("read")()
	r, _, m, pre, err := s.resolveObject(path)
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	out, err := s.readContent(r, m, pre)
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	return out, nil
}

// readContent is the shared read path (ReadFile and OpenFile) once the
// file is resolved: the manifest out of the reply that carried the
// metadata, then the blocks.
func (s *Session) readContent(r ref, m *meta.Metadata, pre replyIndex) ([]byte, error) {
	if m.Attr.Kind != types.KindFile {
		return nil, types.ErrIsDir
	}
	if !s.triplet(m.Attr).CanRead() || m.Keys.DEK.IsZero() {
		return nil, types.ErrPermission
	}
	man, err := s.fetchManifest(r, m, pre)
	if err != nil {
		return nil, err
	}
	blocks, err := s.readBlocks(r, m, man, 0, man.NBlocks)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, man.Size)
	for _, b := range blocks {
		out = append(out, b...)
	}
	if uint64(len(out)) != man.Size {
		return nil, fmt.Errorf("%w: size mismatch (%d != %d)", types.ErrTampered, len(out), man.Size)
	}
	return out, nil
}

// WriteFile implements vfs.FS: create or replace a file's content. All
// encryption happens here, modelling the paper's cache-writes-locally,
// encrypt-and-send-on-close behaviour (Figure 8, write/close rows).
func (s *Session) WriteFile(path string, data []byte, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("write")()
	return pathErrNil("write", path, s.writeFile(path, data, perm))
}

func (s *Session) writeFile(path string, data []byte, perm types.Perm) error {
	r, at, m, pre, err := s.resolveObject(path)
	if errors.Is(err, types.ErrNotExist) {
		_, err := s.createObject(path, at, perm, types.KindFile, data)
		return err
	}
	if err != nil {
		return err
	}
	return s.overwrite(r, m, pre, data)
}

// overwrite replaces an existing file's content in place. pre is the
// reply that carried m, which answers for the manifest too.
func (s *Session) overwrite(r ref, m *meta.Metadata, pre replyIndex, data []byte) error {
	if m.Attr.Kind != types.KindFile {
		return types.ErrIsDir
	}
	if !s.triplet(m.Attr).CanWrite() || m.Keys.DSK.IsZero() {
		return types.ErrPermission
	}
	// The old manifest tells which trailing blocks are now stale.
	oldMan, err := s.fetchManifest(r, m, pre)
	if err != nil {
		return err
	}
	updated := *m
	isOwner := !m.Keys.MetaSeed.IsZero() && !m.Keys.MSK.IsZero()
	var kvs []wire.KV

	if m.Attr.Flags&meta.FlagRekeyPending != 0 && isOwner {
		// Lazy revocation (paper §IV-A1): the deferred re-keying happens
		// now, on the owner's first write after the chmod. The old
		// content is being replaced, so rotation is nearly free: fresh
		// keys, next generation, drop the old blobs.
		rkvs, err := s.rotateForWrite(r, &updated, oldMan)
		if err != nil {
			return err
		}
		kvs = append(kvs, rkvs...)
		oldMan = &meta.Manifest{} // old generation fully dropped
	}

	dkvs, err := s.sealFileData(&updated, data, time.Now().UnixNano())
	if err != nil {
		return err
	}
	kvs = append(kvs, dkvs...)
	newBlocks := uint32((len(data) + int(s.blockSize) - 1) / int(s.blockSize))
	for i := newBlocks; i < oldMan.NBlocks; i++ {
		key := meta.BlockKey(r.ino, updated.Attr.DataGen, i)
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: key, Delete: true})
		s.cache.Delete(ckBlock + key)
	}
	// Owners also refresh the metadata copies so stat stays fresh for
	// users without read access.
	if isOwner {
		updated.Attr.Size = uint64(len(data))
		updated.Attr.MTime = time.Now().UnixNano()
		kvs = append(kvs, s.sealMetaVariants(&updated)...)
	}
	return s.store.BatchPut(kvs)
}

// Append implements vfs.FS: extend a file, re-encrypting only the final
// (partial) block and the new tail — the update-efficiency argument for
// block-level encryption in §II-B.
func (s *Session) Append(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("append")()
	return pathErrNil("append", path, s.appendFile(path, data))
}

func (s *Session) appendFile(path string, data []byte) error {
	r, _, m, pre, err := s.resolveObject(path)
	if err != nil {
		return err
	}
	if m.Attr.Kind != types.KindFile {
		return types.ErrIsDir
	}
	t := s.triplet(m.Attr)
	if !t.CanWrite() || m.Keys.DSK.IsZero() {
		return types.ErrPermission
	}
	man, err := s.fetchManifest(r, m, pre)
	if err != nil {
		return err
	}
	bs := uint64(s.blockSize)

	// Reassemble the tail: the final partial block, if any, plus the new
	// data. Full blocks before it are untouched.
	firstDirty := uint32(man.Size / bs)
	tailOff := uint64(firstDirty) * bs
	var tail []byte
	if man.Size > tailOff {
		blocks, err := s.readBlocks(r, m, man, firstDirty, firstDirty+1)
		if err != nil {
			return err
		}
		tail = append(tail, blocks[0]...)
	}
	tail = append(tail, data...)

	newSize := man.Size + uint64(len(data))
	newMan := &meta.Manifest{
		Size:      newSize,
		BlockSize: s.blockSize,
		NBlocks:   uint32((newSize + bs - 1) / bs),
		MTime:     time.Now().UnixNano(),
	}
	kvs := s.sealBlocks(m, newMan, firstDirty, tail)
	return s.store.BatchPut(kvs)
}

// rotateForWrite rotates a file's data keys in place on m without
// re-encrypting the outgoing content (the caller is about to replace it),
// and returns deletes for the old generation's blobs.
func (s *Session) rotateForWrite(r ref, m *meta.Metadata, oldMan *meta.Manifest) ([]wire.KV, error) {
	oldGen := m.Attr.DataGen
	stop := s.crypto("rotate-data-keys")
	dsk, dvk := sharocrypto.NewSigningPair()
	m.Keys.DEK = sharocrypto.NewSymKey()
	m.Keys.DSK, m.Keys.DVK = dsk, dvk
	m.Attr.DataGen++
	m.Attr.Flags &^= meta.FlagRekeyPending
	stop()

	kvs := make([]wire.KV, 0, oldMan.NBlocks)
	for i := uint32(0); i < oldMan.NBlocks; i++ {
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.BlockKey(r.ino, oldGen, i), Delete: true})
	}
	s.cache.DeletePrefix(ckBlock + meta.BlockPrefix(r.ino, oldGen))
	s.cache.Delete(ckManifest + meta.ManifestKey(r.ino))
	return kvs, nil
}
