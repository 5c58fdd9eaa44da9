package client

import (
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// fetchManifest retrieves and opens a file's manifest: from the cache,
// from pre (the reply that carried the metadata) or by a fetch of its own.
// A caller that goes on to read content says withContent, and a manifest
// that has to be fetched then brings the tail block with it. The reply
// that answered is returned for readBlocks to find that tail in.
func (s *Session) fetchManifest(r ref, m *meta.Metadata, pre replyIndex, with companion) (*meta.Manifest, replyIndex, error) {
	if m.Keys.DEK.IsZero() || m.Keys.DVK.IsZero() {
		return nil, nil, types.ErrPermission
	}
	if v, ok := s.cache.Get(ckManifest + meta.ManifestKey(r.ino)); ok {
		return v.(*meta.Manifest), pre, nil
	}
	key := meta.ManifestKey(r.ino)
	if !pre.asked(wire.NSData, key) {
		want := append(make([]wire.KV, 0, 2), wire.KV{NS: wire.NSData, Key: key})
		if tail := meta.TailKey(r.ino); with == withContent && !s.cached(ckBlock+tail) {
			want = append(want, wire.KV{NS: wire.NSData, Key: tail})
		}
		var err error
		if pre, err = s.fetch(want); err != nil {
			return nil, nil, err
		}
	}
	blob, ok := pre.get(wire.NSData, key)
	if !ok {
		return nil, nil, fmt.Errorf("%w: manifest missing", types.ErrTampered)
	}
	man, err := s.openManifest(r, m, blob)
	return man, pre, err
}

// openManifest opens, decodes and caches a fetched manifest blob.
func (s *Session) openManifest(r ref, m *meta.Metadata, blob layout.Sealed) (*meta.Manifest, error) {
	man, err := layout.OpenManifest(s.eng, s.clock("open-manifest"), r.ino, m, blob)
	if err != nil {
		return nil, err
	}
	s.cache.Put(ckManifest+meta.ManifestKey(r.ino), man, int64(blob.Len()))
	return man, nil
}

// sealFileData seals a file's full content as blocks of blockSize plus
// manifest into w, staging the plaintext for the cache. Larger files are
// divided into blocks, each encrypted separately, so later updates need
// not re-encrypt the whole file (paper §II-B).
func (s *Session) sealFileData(w *write, m *meta.Metadata, data []byte, blockSize uint32, mtime int64) error {
	if m.Keys.DEK.IsZero() || m.Keys.DSK.IsZero() {
		return types.ErrPermission
	}
	s.sealBlocks(w, m, meta.NewManifest(uint64(len(data)), blockSize, mtime), 0, data)
	return nil
}

// sealBlocks seals data as the file's blocks from block first on, plus
// the new manifest, into w under one CRYPTO stopwatch (the blocks are
// sealed across the worker pool inside the Sealer's SealFile), then — back
// on the session goroutine — stages the plaintext it was given and the
// manifest for the cache.
func (s *Session) sealBlocks(w *write, m *meta.Metadata, man *meta.Manifest, first uint32, data []byte) {
	kvs := s.eng.SealFile(s.clock("seal-data"), m, man, first, data)
	w.add(kvs...)

	bs := int(man.BlockSize)
	blocks, sealedMan := kvs[:len(kvs)-1], kvs[len(kvs)-1]
	for i, kv := range blocks {
		plain := data[i*bs : min((i+1)*bs, len(data))]
		// The cache keeps its own copy (data belongs to the caller), so
		// ask before making one it would drop.
		if s.cache.Holds(int64(len(plain))) {
			w.stage(ckBlock+kv.Key, append([]byte(nil), plain...), int64(len(plain)))
		}
	}
	w.stage(ckManifest+sealedMan.Key, man, int64(len(sealedMan.Val)))
}

// dropTail returns the delete for a stored tail block that a write leaves
// behind: the file had one (old) and, at its new size (now), has none. A
// tail that is replaced is simply overwritten: its key does not change.
func dropTail(ino types.Inode, old, now *meta.Manifest) []wire.KV {
	if old.TailLen() == 0 || now.TailLen() != 0 {
		return nil
	}
	return []wire.KV{{NS: wire.NSData, Key: meta.TailKey(ino), Delete: true}}
}

// readBlocks fetches, verifies and decrypts the blocks [from, to) of a
// file: each from the cache, else out of pre (the reply that carried the
// metadata or the manifest, which answers for the tail), else by one fetch
// naming every block still missing. A blob in pre that man does not call
// for is never looked at. man is verified, and names each block by its
// digest; a block carries no signature of its own, only its own nonce and
// AAD, so the sealed ones are checked against man's digests and opened
// across the worker pool. The closure writes only its own slot, and the
// cache is touched only after the join, by this goroutine, with blocks
// that verified. A block of another version of the file — a tail kept
// from when the file was shorter, a block the last write replaced — fails
// its digest; the length check against man is a second line behind it.
func (s *Session) readBlocks(r ref, m *meta.Metadata, man *meta.Manifest, from, to uint32, pre replyIndex) ([][]byte, error) {
	gen := m.Attr.DataGen
	out := make([][]byte, to-from)
	var missing, want []wire.KV
	var slots []int // missing[i] is block from+slots[i]
	for i := from; i < to; i++ {
		key := man.DataKey(r.ino, gen, i)
		if v, ok := s.cache.Get(ckBlock + key); ok {
			out[i-from] = v.([]byte)
			continue
		}
		kv := wire.KV{NS: wire.NSData, Key: key}
		missing = append(missing, kv)
		slots = append(slots, int(i-from))
		if !pre.asked(kv.NS, kv.Key) {
			want = append(want, kv)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	var fetched replyIndex
	if len(want) > 0 {
		var err error
		if fetched, err = s.fetch(want); err != nil {
			return nil, err
		}
	}
	sealed := make([]layout.Sealed, len(missing))
	absent := 0
	for i, kv := range missing {
		blobs := fetched
		if pre.asked(kv.NS, kv.Key) {
			blobs = pre
		}
		var ok bool
		if sealed[i], ok = blobs.get(kv.NS, kv.Key); !ok {
			absent++
		}
	}
	if absent > 0 {
		return nil, fmt.Errorf("%w: %d of %d blocks missing", types.ErrTampered, absent, len(missing))
	}
	errs := make([]error, len(missing))
	sw, end := s.cryptoGroup("open-block")
	layout.RunParallel(len(missing), func(i int) {
		idx := from + uint32(slots[i])
		pt, err := layout.OpenBlock(s.eng, sw, m.Keys.DEK, man.DataAAD(r.ino, gen, idx), sealed[i], man.Digests[idx])
		if err == nil && len(pt) != man.DataLen(idx) {
			err = fmt.Errorf("%w: block %d is %d bytes, the manifest says %d", types.ErrTampered, idx, len(pt), man.DataLen(idx))
		}
		out[slots[i]], errs[i] = pt, err
	})
	end()
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
// writer's signature on the manifest and each block against it, and
// decrypt (paper Figure 8, read row). Metadata, manifest and the tail
// block — the whole of a file up to one block — are fetched in one
// batched round trip.
func (s *Session) ReadFile(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("read")
	defer end()
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	r, _, m, pre, err := s.resolveObject(path, withContent, false)
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
// file is resolved: the manifest and the tail out of the reply that
// carried the metadata, then the blocks.
func (s *Session) readContent(r ref, m *meta.Metadata, pre replyIndex) ([]byte, error) {
	if m.Attr.Kind != types.KindFile {
		return nil, types.ErrIsDir
	}
	if !s.triplet(m.Attr).CanRead() || m.Keys.DEK.IsZero() {
		return nil, types.ErrPermission
	}
	man, pre, err := s.fetchManifest(r, m, pre, withContent)
	if err != nil {
		return nil, err
	}
	blocks, err := s.readBlocks(r, m, man, 0, man.NBlocks, pre)
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
	end, err := s.beginOp("write")
	defer end()
	if err != nil {
		return pathErr("write", path, err)
	}
	return pathErrNil("write", path, s.writeFile(path, data, perm))
}

func (s *Session) writeFile(path string, data []byte, perm types.Perm) error {
	r, at, m, pre, err := s.resolveObject(path, withManifest, true)
	if errors.Is(err, types.ErrNotExist) {
		return s.createObject(path, at, pre, perm, types.KindFile, data)
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
	// The old manifest tells which of the old blocks the new content does
	// not overwrite: the full blocks past its own, and a tail it has none
	// to replace with.
	oldMan, _, err := s.fetchManifest(r, m, pre, withManifest)
	if err != nil {
		return err
	}
	now := time.Now().UnixNano()
	newMan := meta.NewManifest(uint64(len(data)), s.blockSize, now)
	updated := *m
	isOwner := !m.Keys.MetaSeed.IsZero() && !m.Keys.MSK.IsZero()
	oldGen, staleFrom := m.Attr.DataGen, newMan.FullBlocks()

	if m.Attr.Flags&meta.FlagRekeyPending != 0 && isOwner {
		// Lazy revocation (paper §IV-A1): the deferred re-keying happens
		// now, on the owner's first write after the chmod. The old
		// content is being replaced, so rotation is nearly free: fresh
		// keys, next generation, and every block of the old one is stale.
		s.rotateDataKeys(&updated)
		staleFrom = 0
	}

	var w write
	s.sealBlocks(&w, &updated, newMan, 0, data)
	for i := staleFrom; i < oldMan.FullBlocks(); i++ {
		w.add(wire.KV{NS: wire.NSData, Key: meta.BlockKey(r.ino, oldGen, i), Delete: true})
	}
	w.add(dropTail(r.ino, oldMan, newMan)...)
	// Owners also refresh the metadata copies so stat stays fresh for
	// users without read access, and keep their own.
	if isOwner {
		updated.Attr.Size = uint64(len(data))
		updated.Attr.MTime = now
		if err := s.sealMetaVariants(&w, &updated); err != nil {
			return err
		}
		s.stageOwnMeta(&w, &updated)
	}
	return s.commit(&w, false)
}

// Append implements vfs.FS: extend a file, re-encrypting only the final
// (partial) block and the new tail — the update-efficiency argument for
// block-level encryption in §II-B.
func (s *Session) Append(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("append")
	defer end()
	if err != nil {
		return pathErr("append", path, err)
	}
	return pathErrNil("append", path, s.appendFile(path, data))
}

func (s *Session) appendFile(path string, data []byte) error {
	r, _, m, pre, err := s.resolveObject(path, withContent, false)
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
	man, pre, err := s.fetchManifest(r, m, pre, withContent)
	if err != nil {
		return err
	}

	// Reassemble the tail: the final partial block, if any, plus the new
	// data. Full blocks before it are untouched, so the file keeps the
	// block size it was written with, whatever this session's is.
	firstDirty := man.FullBlocks()
	var tail []byte
	if man.TailLen() > 0 {
		blocks, err := s.readBlocks(r, m, man, firstDirty, firstDirty+1, pre)
		if err != nil {
			return err
		}
		tail = append(tail, blocks[0]...)
	}
	tail = append(tail, data...)

	newMan := meta.NewManifest(man.Size+uint64(len(data)), man.BlockSize, time.Now().UnixNano())
	copy(newMan.Digests, man.Digests[:firstDirty])
	var w write
	s.sealBlocks(&w, m, newMan, firstDirty, tail)
	w.add(dropTail(r.ino, man, newMan)...)
	return s.commit(&w, false)
}
