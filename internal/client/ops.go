package client

import (
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// pathErr wraps err with operation and path context.
func pathErr(op, path string, err error) error {
	var pe *types.PathError
	if errors.As(err, &pe) {
		return err
	}
	return &types.PathError{Op: op, Path: path, Err: err}
}

// Stat implements vfs.FS — the getattr operation: obtain the encrypted
// metadata object from the SSP and decrypt it (paper Figure 8).
func (s *Session) Stat(path string) (vfs.Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("stat")
	defer end()
	if err != nil {
		return vfs.Info{}, pathErr("stat", path, err)
	}
	_, base, err := types.SplitPath(path)
	if err != nil {
		return vfs.Info{}, pathErr("stat", path, err)
	}
	r, _, m, pre, err := s.resolveObject(path, withManifest, false)
	if err != nil {
		return vfs.Info{}, pathErr("stat", path, err)
	}
	info := infoFromAttr(base, m.Attr)
	// For files the caller can read, size and mtime come from the
	// writer-signed manifest (metadata is owner-signed and may lag
	// non-owner writes). getattr is lenient about it: a manifest that is
	// missing or fails to verify leaves the metadata attributes in place,
	// and the integrity problem surfaces on ReadFile.
	if hasManifest(m) {
		if man, _, err := s.fetchManifest(r, m, pre, withManifest); err == nil {
			info.Size = man.Size
			info.MTime = time.Unix(0, man.MTime)
		}
	}
	return info, nil
}

// fetchObject retrieves the metadata of the object an operation was asked
// about, batching it with what the operation reads next — the manifest
// (withManifest), or the manifest and the tail block (withContent) — with
// whatever else the caller names (ride) and, when the miss falls inside a
// directory ReadDir has listed (at names its row), with the not-yet-cached
// siblings that follow it (see listedSiblings) — so that getattr keeps the
// paper's single-receive cost profile, a read of a file up to one block
// and an append to any file pay one receive, and "ls -l" one per
// directory, not one per entry. The companions are opened by the caller
// (fetchManifest, readBlocks) out of the returned reply.
func (s *Session) fetchObject(r ref, at dirent, with companion, ride []wire.KV) (*meta.Metadata, replyIndex, error) {
	if v, ok := s.cache.Get(ckMeta + meta.MetaKey(r.ino, r.variant)); ok {
		return v.(*meta.Metadata), nil, nil
	}
	return s.fetchMetaMiss(r, with, at, ride)
}

// resolveObject walks to path and fetches the object found there
// (fetchObject): how every operation on a file begins. parentWriter says
// the operation may go on to write the parent directory (see resolveRef).
// The dirent comes back as resolveRef returns it, on errors too, and so
// does the reply: what the object's own fetch answers for and, for a
// parent writer, what the walk's final hop does.
func (s *Session) resolveObject(path string, with companion, parentWriter bool) (ref, dirent, *meta.Metadata, replyIndex, error) {
	r, at, tables, err := s.resolveRef(path, parentWriter)
	if err != nil {
		return ref{}, at, nil, tables, err
	}
	m, pre, err := s.fetchObject(r, at, with, nil)
	return r, at, m, tables.plus(pre), err
}

// hasManifest reports whether getattr reads size and mtime from the
// object's manifest: files whose data the caller's variant can decrypt.
func hasManifest(m *meta.Metadata) bool {
	return m.Attr.Kind == types.KindFile && !m.Keys.DEK.IsZero()
}

func infoFromAttr(name string, a meta.Attr) vfs.Info {
	return vfs.Info{
		Name:  name,
		Inode: a.Inode,
		Kind:  a.Kind,
		Owner: a.Owner,
		Group: a.Group,
		Perm:  a.Perm,
		Size:  a.Size,
		MTime: time.Unix(0, a.MTime),
	}
}

// ReadDir implements vfs.FS: list entry names, requiring the read
// permission on the directory (the "ls" CAP).
func (s *Session) ReadDir(path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("readdir")
	defer end()
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	r, _, _, err := s.resolveRef(path, false)
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	m, pre, err := s.fetchMeta(r, withView)
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	if m.Attr.Kind != types.KindDir {
		return nil, pathErr("readdir", path, types.ErrNotDir)
	}
	if !s.triplet(m.Attr).CanRead() {
		return nil, pathErr("readdir", path, types.ErrPermission)
	}
	dv, err := s.openViewOf(r, m, pre)
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	names, err := dv.Names()
	if err != nil {
		if errors.Is(err, cap.ErrNoKeys) {
			err = types.ErrPermission
		}
		return nil, pathErr("readdir", path, err)
	}
	// A getattr of an entry usually follows ("ls -l"): mark the view
	// listed, so the first such miss fetches its siblings too. The mark is
	// part of the cached view and dies with it — only a full view carries
	// the rows a sibling fetch needs, and a view the cache does not hold
	// carries its mark nowhere.
	if _, err := dv.Full(); err == nil {
		dv.listed = true
	}
	out := make([]string, len(names))
	copy(out, names)
	return out, nil
}

// Mkdir implements vfs.FS: create a new directory — mint its metadata per
// CAP, insert it into every view of the parent's table, and re-encrypt
// those views (paper Figure 8, mkdir row).
func (s *Session) Mkdir(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("mkdir")
	defer end()
	if err != nil {
		return pathErr("mkdir", path, err)
	}
	return pathErrNil("mkdir", path, s.createObject(path, dirent{}, nil, perm, types.KindDir, nil))
}

// Create implements vfs.FS: create an empty file (mknod).
func (s *Session) Create(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("create")
	defer end()
	if err != nil {
		return pathErr("create", path, err)
	}
	return pathErrNil("create", path, s.createObject(path, dirent{}, nil, perm, types.KindFile, []byte{}))
}

func pathErrNil(op, path string, err error) error {
	if err == nil {
		return nil
	}
	return pathErr(op, path, err)
}

// createObject creates a file or directory with optional initial data.
// at and pre are the final hop of the caller's own walk to path, and that
// hop's reply, when that walk read the parent's table and found no such
// entry; at is zero otherwise — Mkdir and Create, which have not walked —
// and the writer's walk is then made here. One way or the other the
// parent is resolved once, and the reply of its hop answers for the
// writer tables.
func (s *Session) createObject(path string, at dirent, pre replyIndex, perm types.Perm, kind types.ObjKind, data []byte) error {
	if err := cap.ValidatePerm(kind, perm); err != nil {
		return err
	}
	if at.view == nil {
		var err error
		// Whatever the lookup said: whether the entry exists is decided
		// below, in the writer's own table, after the right to write the
		// directory. Every hop that gets that far has read the view.
		if _, at, pre, err = s.resolveRef(path, true); at.view == nil {
			if err == nil { // the walk had no hop to make
				err = errOnRoot
			}
			return err
		}
	}
	pr, pm, base := at.dir, at.meta, at.name
	if err := s.requireDirWriter(pm); err != nil {
		return err
	}
	tables, err := s.loadParentTables(pr, pm, at.view, pre)
	if err != nil {
		return err
	}
	if _, err := tables[pr.variant].Lookup(base); err == nil {
		return types.ErrExist
	}

	now := time.Now().UnixNano()
	child := &meta.Metadata{
		Attr: meta.Attr{
			Inode: types.NewInode(),
			Kind:  kind,
			Owner: s.user.ID,
			Group: pm.Attr.Group, // BSD semantics: inherit the parent's group
			Perm:  perm,
			MTime: now,
			Size:  uint64(len(data)),
		},
		Keys: s.eng.NewKeys(s.clock("mint-keys")),
	}

	// Child metadata, one sealed copy per CAP variant, of which the
	// creator's own is staged: their next walk into it reads nothing.
	var w write
	if err := s.sealMetaVariants(&w, child); err != nil {
		return err
	}
	own := s.eng.UserVariant(s.user.ID, child.Attr)
	ownKey := meta.MetaKey(child.Attr.Inode, own.ID)
	for _, kv := range w.kvs {
		if kv.Key == ownKey {
			w.stage(ckMeta+kv.Key, s.eng.MetaCopy(child, own), int64(len(kv.Val)))
		}
	}

	switch kind {
	case types.KindDir:
		// The empty tables are not staged: the first walk into the new
		// directory reads them, so it sees what other users have created
		// there since.
		tkvs, err := layout.BuildTableKVs(s.eng, s.clock("seal-table"), child, &meta.DirTable{})
		if err != nil {
			return err
		}
		w.add(tkvs...)
	case types.KindFile:
		if err := s.sealFileData(&w, child, data, s.blockSize, now); err != nil {
			return err
		}
	}

	// Parent directory table: add the row to every view.
	grants, err := layout.BuildRows(s.eng, pm, tables, base, child)
	if err != nil {
		return err
	}
	w.add(grants...)
	if err := s.writeParentTables(&w, pr, pm, tables); err != nil {
		return err
	}
	return s.commit(&w, false)
}

// Remove implements vfs.FS: unlink a file or remove an empty directory.
func (s *Session) Remove(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("remove")
	defer end()
	if err != nil {
		return pathErr("remove", path, err)
	}
	return pathErrNil("remove", path, s.remove(path))
}

func (s *Session) remove(path string) error {
	cr, at, ridden, err := s.resolveRef(path, true)
	if at.meta == nil {
		if err == nil { // the walk had no hop to make
			err = errOnRoot
		}
		return err
	}
	// The right to modify the parent is judged before anything about the
	// child, its existence included.
	pr, pm, base := at.dir, at.meta, at.name
	if werr := s.requireDirWriter(pm); werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	// The parent's metadata is open, so every writer table still to be
	// fetched can be named: they ride the child's fetch.
	cm, pre, err := s.fetchObject(cr, at, withManifest, s.missingTables(pr, pm, at.view, ridden))
	if err != nil {
		return err
	}
	if cm.Attr.Kind == types.KindDir {
		// Emptiness check requires reading the child's table; a caller
		// whose CAP on the child withholds the table key cannot prove
		// emptiness and is refused (fail closed).
		view, err := s.openViewOf(cr, cm, pre)
		if err != nil {
			return err
		}
		if view.Len() > 0 {
			return types.ErrNotEmpty
		}
	}

	tables, err := s.loadParentTables(pr, pm, at.view, ridden.plus(pre))
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		if err := tbl.Remove(base); err != nil && !errors.Is(err, meta.ErrNoEntry) {
			return err
		}
	}
	// The batch names every key the child has — its metadata variants,
	// its tables or its manifest and blocks — so commit forgets all that
	// is cached of it.
	var w write
	if err := s.writeParentTables(&w, pr, pm, tables); err != nil {
		return err
	}
	w.add(layout.DeleteMetaKVs(s.eng, cm.Attr)...)
	dkvs, err := s.deleteDataKVs(cr, cm, pre)
	if err != nil {
		return err
	}
	w.add(dkvs...)
	return s.commit(&w, false)
}

// deleteDataKVs enumerates an object's data blobs and split pointers for
// deletion without extra round trips: directory view keys come from the
// layout, file block keys from the manifest, and split pointers are
// deleted blindly per principal (deletes are idempotent). Only when the
// caller cannot read the manifest does it fall back to a server-side
// listing — unlinking never requires decrypting the file, matching *nix
// (write on the parent suffices).
func (s *Session) deleteDataKVs(r ref, m *meta.Metadata, pre replyIndex) ([]wire.KV, error) {
	var kvs []wire.KV
	switch {
	case m.Attr.Kind == types.KindDir:
		kvs = append(kvs, layout.DeleteTableKVs(s.eng, m.Attr)...)
	case !m.Keys.DEK.IsZero():
		man, _, err := s.fetchManifest(r, m, pre, withManifest)
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < man.NBlocks; i++ {
			kvs = append(kvs, wire.KV{NS: wire.NSData, Key: man.DataKey(r.ino, m.Attr.DataGen, i), Delete: true})
		}
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.ManifestKey(r.ino), Delete: true})
	default:
		items, err := s.list(wire.NSData, meta.FilePrefix(r.ino))
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			kvs = append(kvs, wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
		}
	}
	for _, uid := range s.reg.Users() {
		kvs = append(kvs, wire.KV{NS: wire.NSSplit,
			Key: meta.SplitKey(r.ino, keys.UserPrincipal(uid).String()), Delete: true})
	}
	return kvs, nil
}

// Rename implements vfs.FS. Rows are moved between the parents' table
// views per variant. When the two parents have different owner or group —
// so the per-variant traveller sets differ — the rows must be recomputed,
// which requires the child's owner keys; otherwise the move is refused.
func (s *Session) Rename(oldPath, newPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("rename")
	defer end()
	if err != nil {
		return pathErr("rename", oldPath, err)
	}
	return pathErrNil("rename", oldPath, s.rename(oldPath, newPath))
}

func (s *Session) rename(oldPath, newPath string) error {
	opr, opm, oldBase, err := s.resolveParent(oldPath)
	if err != nil {
		return err
	}
	npr, npm, newBase, err := s.resolveParent(newPath)
	if err != nil {
		return err
	}
	if err := s.requireDirWriter(opm); err != nil {
		return err
	}
	samePar := opr.ino == npr.ino
	if !samePar {
		if err := s.requireDirWriter(npm); err != nil {
			return err
		}
	}

	srcTables, err := s.loadParentTables(opr, opm, nil, nil)
	if err != nil {
		return err
	}
	if _, err := srcTables[opr.variant].Lookup(oldBase); err != nil {
		if errors.Is(err, meta.ErrNoEntry) {
			return types.ErrNotExist
		}
		return err
	}
	dstTables := srcTables
	if !samePar {
		if dstTables, err = s.loadParentTables(npr, npm, nil, nil); err != nil {
			return err
		}
	}
	if _, err := dstTables[npr.variant].Lookup(newBase); err == nil {
		return types.ErrExist
	}

	sameDomain := samePar || (opm.Attr.Owner == npm.Attr.Owner && opm.Attr.Group == npm.Attr.Group)
	var grants []wire.KV
	if sameDomain {
		// Traveller sets match: rows move verbatim.
		for id, src := range srcTables {
			e, err := src.Lookup(oldBase)
			if err != nil {
				if errors.Is(err, meta.ErrNoEntry) {
					continue
				}
				return err
			}
			moved := *e
			moved.Name = newBase
			if err := src.Remove(oldBase); err != nil {
				return err
			}
			if err := dstTables[id].Insert(moved); err != nil {
				return err
			}
		}
	} else {
		// Different ownership domain: recompute rows, which needs the
		// child's full key set (its owner's variant).
		_, cm, err := s.resolve(oldPath)
		if err != nil {
			return err
		}
		if cm.Keys.MetaSeed.IsZero() || cm.Keys.MSK.IsZero() {
			return fmt.Errorf("%w: cross-domain rename requires ownership of %q", types.ErrPermission, oldPath)
		}
		for _, tbl := range srcTables {
			if err := tbl.Remove(oldBase); err != nil && !errors.Is(err, meta.ErrNoEntry) {
				return err
			}
		}
		if grants, err = layout.BuildRows(s.eng, npm, dstTables, newBase, cm); err != nil {
			return err
		}
	}

	var w write
	if err := s.writeParentTables(&w, opr, opm, srcTables); err != nil {
		return err
	}
	if !samePar {
		if err := s.writeParentTables(&w, npr, npm, dstTables); err != nil {
			return err
		}
	}
	w.add(grants...)
	return s.commit(&w, false)
}
