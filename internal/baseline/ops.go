package baseline

import (
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// Bootstrap creates an empty baseline filesystem.
func Bootstrap(store ssp.BlobStore, mode Mode, fsid string, reg *keys.Registry,
	owner types.UserID, group types.GroupID, perm types.Perm) error {
	root := &bMeta{}
	root.Attr.Inode = types.RootInode
	root.Attr.Kind = types.KindDir
	root.Attr.Owner = owner
	root.Attr.Group = group
	root.Attr.Perm = perm
	root.Attr.MTime = time.Now().UnixNano()
	root.DEK = newDEK()
	kvs, err := sealMetaKVs(mode, fsid, reg, reg.Users(), root, nil)
	if err != nil {
		return fmt.Errorf("baseline: bootstrap: %w", err)
	}
	return store.BatchPut(kvs)
}

func newDEK() (k [16]byte) {
	if _, err := rand.Read(k[:]); err != nil {
		panic("baseline: entropy unavailable: " + err.Error())
	}
	return k
}

// resolve walks a path from the root.
func (s *Session) resolve(path string) (*bMeta, error) {
	comps, err := types.PathComponents(path)
	if err != nil {
		return nil, err
	}
	m, err := s.fetchMeta(types.RootInode)
	if err != nil {
		return nil, err
	}
	for _, c := range comps {
		if m.Attr.Kind != types.KindDir {
			return nil, types.ErrNotDir
		}
		if !s.triplet(m).CanExec() {
			return nil, types.ErrPermission
		}
		t, err := s.fetchTable(m)
		if err != nil {
			return nil, err
		}
		ino, ok := t.entries[c]
		if !ok {
			return nil, types.ErrNotExist
		}
		if m, err = s.fetchMeta(ino); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (s *Session) resolveParent(path string) (*bMeta, string, error) {
	dir, base, err := types.SplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if base == "" {
		return nil, "", types.ErrInvalidPath
	}
	m, err := s.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if m.Attr.Kind != types.KindDir {
		return nil, "", types.ErrNotDir
	}
	return m, base, nil
}

// Stat implements vfs.FS.
func (s *Session) Stat(path string) (vfs.Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	_, base, err := types.SplitPath(path)
	if err != nil {
		return vfs.Info{}, err
	}
	m, err := s.resolve(path)
	if err != nil {
		return vfs.Info{}, &types.PathError{Op: "stat", Path: path, Err: err}
	}
	return vfs.Info{Name: base, Inode: m.Attr.Inode, Kind: m.Attr.Kind, Owner: m.Attr.Owner,
		Group: m.Attr.Group, Perm: m.Attr.Perm, Size: m.Attr.Size,
		MTime: time.Unix(0, m.Attr.MTime)}, nil
}

// ReadDir implements vfs.FS.
func (s *Session) ReadDir(path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	m, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	if m.Attr.Kind != types.KindDir {
		return nil, types.ErrNotDir
	}
	if !s.triplet(m).CanRead() {
		return nil, types.ErrPermission
	}
	t, err := s.fetchTable(m)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(t.entries))
	for n := range t.entries {
		names = append(names, n)
	}
	sortStrings(names)
	return names, nil
}

// Mkdir implements vfs.FS.
func (s *Session) Mkdir(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	_, err := s.create(path, perm, types.KindDir, nil)
	return err
}

// Create implements vfs.FS.
func (s *Session) Create(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	_, err := s.create(path, perm, types.KindFile, []byte{})
	return err
}

func (s *Session) create(path string, perm types.Perm, kind types.ObjKind, data []byte) (*bMeta, error) {
	p, base, err := s.resolveParent(path)
	if err != nil {
		return nil, err
	}
	pt := s.triplet(p)
	if !pt.CanWrite() || !pt.CanExec() {
		return nil, types.ErrPermission
	}
	t, err := s.fetchTable(p)
	if err != nil {
		return nil, err
	}
	if _, ok := t.entries[base]; ok {
		return nil, types.ErrExist
	}

	m := &bMeta{}
	m.Attr.Inode = types.NewInode()
	m.Attr.Kind = kind
	m.Attr.Owner = s.user.ID
	m.Attr.Group = p.Attr.Group
	m.Attr.Perm = perm
	m.Attr.Size = uint64(len(data))
	m.Attr.MTime = time.Now().UnixNano()
	m.DEK = newDEK()

	kvs, err := s.sealMetaKVs(m)
	if err != nil {
		return nil, err
	}
	if kind == types.KindFile {
		kvs = append(kvs, s.blockKVs(m, 0, data)...)
	}
	t.entries[base] = m.Attr.Inode
	tkv := s.tableKV(p, t)
	kvs = append(kvs, tkv)
	if err := s.commit(kvs); err != nil {
		return nil, err
	}
	//sharoes-vet:allow unverified NO-ENC baseline write-through of unauthenticated table by design
	s.cacheTable(t, tkv)
	// The child inherits attributes (group) from the parent, which the
	// NO-ENC modes read unauthenticated by design.
	s.cache.Put(ckMeta+s.metaKey(m.Attr.Inode), m, int64(len(kvs[0].Val))) //sharoes-vet:allow unverified NO-ENC baseline caches metadata derived from unauthenticated parent
	s.cacheBlocks(m.Attr.Inode, 0, data)
	return m, nil
}

// commit sends one batch to the store, the one place a write does. Whether
// the store takes it or not, the cache forgets every entry at every key
// the batch names; the caller caches what the batch wrote only once commit
// has returned nil — the Sharoes client's rule, so that the two pay
// symmetric network costs and read the same after a refused write.
func (s *Session) commit(kvs []wire.KV) error {
	err := s.store.BatchPut(kvs)
	for _, kv := range kvs {
		switch kv.NS {
		case wire.NSMeta:
			s.cache.Delete(ckMeta + kv.Key)
		case wire.NSData:
			s.cache.Delete(ckTable + kv.Key)
			s.cache.Delete(ckBlock + kv.Key)
		}
	}
	return err
}

// blockKVs seals data as the file's blocks from block first on; the
// caller caches the plaintext (cacheBlocks) once the batch is stored.
func (s *Session) blockKVs(m *bMeta, first uint32, data []byte) []wire.KV {
	bs := int(s.blockSize)
	kvs := make([]wire.KV, 0, (len(data)+bs-1)/bs)
	for lo := 0; lo < len(data); lo += bs {
		idx := first + uint32(lo/bs)
		blk := s.sealData(m, blockAAD(m.Attr.Inode, idx), data[lo:min(lo+bs, len(data))])
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: s.blockKey(m.Attr.Inode, idx), Val: blk})
	}
	return kvs
}

// cacheBlocks caches a copy of data as the file's blocks from block first
// on, after a commit stored them.
func (s *Session) cacheBlocks(ino types.Inode, first uint32, data []byte) {
	bs := int(s.blockSize)
	for lo := 0; lo < len(data); lo += bs {
		hi := min(lo+bs, len(data))
		pt := make([]byte, hi-lo)
		copy(pt, data[lo:hi])
		s.cache.Put(ckBlock+s.blockKey(ino, first+uint32(lo/bs)), pt, int64(hi-lo))
	}
}

// ReadFile implements vfs.FS.
func (s *Session) ReadFile(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	m, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	if m.Attr.Kind != types.KindFile {
		return nil, types.ErrIsDir
	}
	if !s.triplet(m).CanRead() {
		return nil, types.ErrPermission
	}
	bs := uint64(s.blockSize)
	nBlocks := uint32((m.Attr.Size + bs - 1) / bs)
	out := make([]byte, 0, m.Attr.Size)
	var missing []wire.KV
	parts := make([][]byte, nBlocks)
	for i := uint32(0); i < nBlocks; i++ {
		if v, ok := s.cache.Get(ckBlock + s.blockKey(m.Attr.Inode, i)); ok {
			parts[i] = v.([]byte)
			continue
		}
		missing = append(missing, wire.KV{NS: wire.NSData, Key: s.blockKey(m.Attr.Inode, i)})
	}
	if len(missing) > 0 {
		items, err := s.store.BatchGet(missing)
		if err != nil {
			return nil, err
		}
		if len(items) != len(missing) {
			return nil, fmt.Errorf("%w: blocks missing", types.ErrTampered)
		}
		for _, it := range items {
			var idx uint32
			if _, err := fmt.Sscanf(it.Key[len(s.filePrefix(m.Attr.Inode)):], "%d", &idx); err != nil {
				return nil, fmt.Errorf("%w: foreign block key", types.ErrTampered)
			}
			pt, err := s.openData(m, blockAAD(m.Attr.Inode, idx), it.Val)
			if err != nil {
				return nil, err
			}
			parts[idx] = pt
			// NO-ENC-MD-D stores blocks in plaintext; openData passes them
			// through unauthenticated by design.
			s.cache.Put(ckBlock+it.Key, pt, int64(len(pt))) //sharoes-vet:allow unverified NO-ENC baseline caches unauthenticated blocks by design
		}
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	if uint64(len(out)) != m.Attr.Size {
		return nil, fmt.Errorf("%w: size mismatch", types.ErrTampered)
	}
	return out, nil
}

// WriteFile implements vfs.FS.
func (s *Session) WriteFile(path string, data []byte, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	m, err := s.resolve(path)
	if errors.Is(err, types.ErrNotExist) {
		_, err := s.create(path, perm, types.KindFile, data)
		return err
	}
	if err != nil {
		return err
	}
	return s.overwrite(m, data)
}

func (s *Session) overwrite(m *bMeta, data []byte) error {
	if m.Attr.Kind != types.KindFile {
		return types.ErrIsDir
	}
	if !s.triplet(m).CanWrite() {
		return types.ErrPermission
	}
	bs := uint64(s.blockSize)
	oldBlocks := uint32((m.Attr.Size + bs - 1) / bs)
	kvs := s.blockKVs(m, 0, data)
	newBlocks := uint32((uint64(len(data)) + bs - 1) / bs)
	for i := newBlocks; i < oldBlocks; i++ {
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: s.blockKey(m.Attr.Inode, i), Delete: true})
	}
	m.Attr.Size = uint64(len(data))
	m.Attr.MTime = time.Now().UnixNano()
	mk, err := s.sealMetaKVs(m)
	if err != nil {
		return err
	}
	if err := s.commit(append(kvs, mk...)); err != nil {
		return err
	}
	s.cacheBlocks(m.Attr.Inode, 0, data)
	return nil
}

// Append implements vfs.FS.
func (s *Session) Append(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if m.Attr.Kind != types.KindFile {
		return types.ErrIsDir
	}
	if !s.triplet(m).CanWrite() {
		return types.ErrPermission
	}
	bs := uint64(s.blockSize)
	firstDirty := uint32(m.Attr.Size / bs)
	tailOff := uint64(firstDirty) * bs
	var tail []byte
	if m.Attr.Size > tailOff {
		key := s.blockKey(m.Attr.Inode, firstDirty)
		var pt []byte
		if v, ok := s.cache.Get(ckBlock + key); ok {
			pt = v.([]byte)
		} else {
			blob, err := s.store.Get(wire.NSData, key)
			if err != nil {
				return err
			}
			if pt, err = s.openData(m, blockAAD(m.Attr.Inode, firstDirty), blob); err != nil {
				return err
			}
		}
		tail = append(tail, pt...)
	}
	tail = append(tail, data...)

	kvs := s.blockKVs(m, firstDirty, tail)
	m.Attr.Size += uint64(len(data))
	m.Attr.MTime = time.Now().UnixNano()
	mk, err := s.sealMetaKVs(m)
	if err != nil {
		return err
	}
	if err := s.commit(append(kvs, mk...)); err != nil {
		return err
	}
	s.cacheBlocks(m.Attr.Inode, firstDirty, tail)
	return nil
}

// Chmod implements vfs.FS (owner-only, like the Sharoes client; baselines
// re-encrypt nothing — they have no revocation story, one of the gaps the
// paper calls out in related work).
func (s *Session) Chmod(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if m.Attr.Owner != s.user.ID {
		return types.ErrPermission
	}
	m.Attr.Perm = perm
	kvs, err := s.sealMetaKVs(m)
	if err != nil {
		return err
	}
	return s.commit(kvs)
}

// Chown implements vfs.FS.
func (s *Session) Chown(path string, owner types.UserID, group types.GroupID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if m.Attr.Owner != s.user.ID {
		return types.ErrPermission
	}
	if owner != "" {
		m.Attr.Owner = owner
	}
	if group != "" {
		m.Attr.Group = group
	}
	kvs, err := s.sealMetaKVs(m)
	if err != nil {
		return err
	}
	return s.commit(kvs)
}

// Remove implements vfs.FS.
func (s *Session) Remove(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	p, base, err := s.resolveParent(path)
	if err != nil {
		return err
	}
	pt := s.triplet(p)
	if !pt.CanWrite() || !pt.CanExec() {
		return types.ErrPermission
	}
	m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if m.Attr.Kind == types.KindDir {
		ct, err := s.fetchTable(m)
		if err != nil {
			return err
		}
		if len(ct.entries) > 0 {
			return types.ErrNotEmpty
		}
	}
	t, err := s.fetchTable(p)
	if err != nil {
		return err
	}
	delete(t.entries, base)
	tkv := s.tableKV(p, t)
	kvs := append([]wire.KV{tkv}, s.deleteMetaKVs(m.Attr.Inode)...)
	items, err := s.store.List(wire.NSData, s.filePrefix(m.Attr.Inode))
	if err != nil {
		return err
	}
	for _, it := range items {
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
	}
	kvs = append(kvs, wire.KV{NS: wire.NSData, Key: s.tableKey(m.Attr.Inode), Delete: true})
	if err := s.commit(kvs); err != nil {
		return err
	}
	//sharoes-vet:allow unverified NO-ENC baseline write-through of unauthenticated table by design
	s.cacheTable(t, tkv)
	return nil
}

// Rename implements vfs.FS.
func (s *Session) Rename(oldPath, newPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.rec.AddOp()
	op, oldBase, err := s.resolveParent(oldPath)
	if err != nil {
		return err
	}
	np, newBase, err := s.resolveParent(newPath)
	if err != nil {
		return err
	}
	for _, d := range []*bMeta{op, np} {
		t := s.triplet(d)
		if !t.CanWrite() || !t.CanExec() {
			return types.ErrPermission
		}
	}
	ot, err := s.fetchTable(op)
	if err != nil {
		return err
	}
	ino, ok := ot.entries[oldBase]
	if !ok {
		return types.ErrNotExist
	}
	nt := ot
	if op.Attr.Inode != np.Attr.Inode {
		if nt, err = s.fetchTable(np); err != nil {
			return err
		}
	}
	if _, ok := nt.entries[newBase]; ok {
		return types.ErrExist
	}
	delete(ot.entries, oldBase)
	nt.entries[newBase] = ino
	kvs := []wire.KV{s.tableKV(op, ot)}
	if op.Attr.Inode != np.Attr.Inode {
		kvs = append(kvs, s.tableKV(np, nt))
	}
	if err := s.commit(kvs); err != nil {
		return err
	}
	//sharoes-vet:allow unverified NO-ENC baseline write-through of unauthenticated table by design
	s.cacheTable(ot, kvs[0])
	if op.Attr.Inode != np.Attr.Inode {
		//sharoes-vet:allow unverified NO-ENC baseline write-through of unauthenticated table by design
		s.cacheTable(nt, kvs[1])
	}
	return nil
}
