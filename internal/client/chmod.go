package client

import (
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// sealMetaVariants seals every CAP copy of the metadata and invalidates
// the local cache for the object's metadata.
func (s *Session) sealMetaVariants(m *meta.Metadata) []wire.KV {
	stop := s.crypto("seal-meta")
	kvs := layout.BuildMetaKVs(s.eng, m)
	stop()
	s.cache.DeletePrefix(ckMeta + "m/" + fmt.Sprintf("%d/", uint64(m.Attr.Inode)))
	return kvs
}

// requireOwner checks that the session user owns the object and holds the
// owner keys (MSK + metadata seed).
func (s *Session) requireOwner(m *meta.Metadata) error {
	if m.Attr.Owner != s.user.ID {
		return types.ErrPermission
	}
	if m.Keys.MSK.IsZero() || m.Keys.MetaSeed.IsZero() {
		return types.ErrPermission
	}
	return nil
}

// revocationNeeded reports whether moving from oldPerm to newPerm strips
// any capability from the group or other class. Owner capabilities are
// not revocable from themselves (owners hold all keys by construction).
func revocationNeeded(kind types.ObjKind, oldPerm, newPerm types.Perm) bool {
	for _, c := range []types.Class{types.ClassGroup, types.ClassOther} {
		oldC, _ := cap.For(kind, oldPerm.TripletFor(c))
		newC, _ := cap.For(kind, newPerm.TripletFor(c))
		if kind == types.KindFile {
			if (oldC.CanReadData() && !newC.CanReadData()) ||
				(oldC.CanWriteData() && !newC.CanWriteData()) {
				return true
			}
			continue
		}
		if (oldC.CanList() && !newC.CanList()) ||
			(oldC.CanTraverse() && !newC.CanTraverse()) ||
			(oldC.CanModifyDir() && !newC.CanModifyDir()) {
			return true
		}
	}
	return false
}

// rekeyData rotates an object's data keys in place on m — fresh DEK,
// DataSeed and signing pair, next data generation — and returns the KVs
// that re-encrypt the data under them. This is the immediate-revocation
// path of the paper (§IV-A1): a revoked reader may have cached the DEK,
// so the content must move to keys they never saw.
func (s *Session) rekeyData(r ref, m *meta.Metadata) ([]wire.KV, error) {
	oldGen := m.Attr.DataGen

	var content []byte
	var man *meta.Manifest
	var tables map[string]*meta.DirTable
	if m.Attr.Kind == types.KindFile {
		var pre replyIndex
		var err error
		if man, pre, err = s.fetchManifest(r, m, nil, withContent); err != nil {
			return nil, err
		}
		blocks, err := s.readBlocks(r, m, man, 0, man.NBlocks, pre)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			content = append(content, b...)
		}
	} else {
		var err error
		if tables, err = s.loadParentTables(r, m, nil, nil); err != nil {
			return nil, err
		}
	}

	// Rotate keys.
	stop := s.crypto("rotate-data-keys")
	dsk, dvk := sharocrypto.NewSigningPair()
	m.Keys.DEK = sharocrypto.NewSymKey()
	m.Keys.DataSeed = sharocrypto.NewSymKey()
	m.Keys.DSK, m.Keys.DVK = dsk, dvk
	m.Attr.DataGen++
	m.Attr.Flags &^= meta.FlagRekeyPending
	stop()

	var kvs []wire.KV
	if m.Attr.Kind == types.KindFile {
		// Same content in blocks of the same size: the tail, if there is
		// one, is overwritten in place under its generation-free key.
		dkvs, err := s.sealFileData(m, content, man.BlockSize, time.Now().UnixNano())
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, dkvs...)
		// Drop the old generation's blobs.
		old, err := s.list(wire.NSData, meta.BlockPrefix(r.ino, oldGen))
		if err != nil {
			return nil, err
		}
		for _, it := range old {
			kvs = append(kvs, wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
		}
		s.cache.DeletePrefix(ckBlock + meta.BlockPrefix(r.ino, oldGen))
		s.cache.Delete(ckManifest + meta.ManifestKey(r.ino))
	} else {
		tkvs, err := s.writeParentTables(r, m, tables)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, tkvs...)
	}
	return kvs, nil
}

// Chmod implements vfs.FS. The owner rewrites every CAP copy of the
// metadata; when a class loses a capability, immediate revocation
// re-encrypts the data under fresh keys (or, with LazyRevocation, marks
// the object for re-keying at the owner's next write). Parent directory
// rows are untouched: variant identifiers and MEKs are permission-
// independent by construction.
func (s *Session) Chmod(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("chmod")()
	return pathErrNil("chmod", path, s.chmod(path, perm))
}

func (s *Session) chmod(path string, perm types.Perm) error {
	r, m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if err := s.requireOwner(m); err != nil {
		return err
	}
	if err := cap.ValidatePerm(m.Attr.Kind, perm); err != nil {
		return err
	}

	updated := *m
	var kvs []wire.KV
	if revocationNeeded(m.Attr.Kind, m.Attr.Perm, perm) {
		// Lazy revocation (Plutus-style) defers *file* re-encryption to
		// the next write; directories have no equivalent write trigger,
		// so their revocations are always immediate.
		if s.lazy && m.Attr.Kind == types.KindFile {
			updated.Attr.Flags |= meta.FlagRekeyPending
		} else {
			rk, err := s.rekeyData(r, &updated)
			if err != nil {
				return err
			}
			kvs = append(kvs, rk...)
		}
	} else if updated.Attr.Kind == types.KindDir {
		// Views encode per-CAP shapes; a permission change can alter a
		// class's shape (e.g. r-x → r--), so re-seal the views even when
		// nothing is revoked... but only if shapes actually changed.
		if viewShapesDiffer(m.Attr.Perm, perm) {
			tables, err := s.loadParentTables(r, m, nil, nil)
			if err != nil {
				return err
			}
			updated.Attr.Perm = perm
			tkvs, err := s.writeParentTables(r, &updated, tables)
			if err != nil {
				return err
			}
			kvs = append(kvs, tkvs...)
		}
	}
	updated.Attr.Perm = perm

	kvs = append(kvs, s.sealMetaVariants(&updated)...)
	return s.store.BatchPut(kvs)
}

// viewShapesDiffer reports whether any class's directory CAP class — and
// hence its table-view shape — changes between the two permissions.
func viewShapesDiffer(oldPerm, newPerm types.Perm) bool {
	for _, c := range []types.Class{types.ClassOwner, types.ClassGroup, types.ClassOther} {
		oldC, _ := cap.ForDir(oldPerm.TripletFor(c))
		newC, _ := cap.ForDir(newPerm.TripletFor(c))
		if oldC != newC {
			return true
		}
	}
	return false
}

// Chown implements vfs.FS: change owner and/or group. Ownership changes
// move users between accessor classes, so the complete key material is
// rotated (metadata seed, MSK, data keys) and the parent directory's rows
// are recomputed — which requires write permission on the parent, the one
// place Sharoes is stricter than local *nix. Chowning the namespace root
// instead re-seals every principal's superblock.
func (s *Session) Chown(path string, owner types.UserID, group types.GroupID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("chown")()
	return pathErrNil("chown", path, s.chown(path, owner, group))
}

func (s *Session) chown(path string, owner types.UserID, group types.GroupID) error {
	r, m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if err := s.requireOwner(m); err != nil {
		return err
	}
	if owner == "" {
		owner = m.Attr.Owner
	}
	if group == "" {
		group = m.Attr.Group
	}
	if _, err := s.reg.UserKey(owner); err != nil {
		return err
	}

	updated := *m
	updated.Attr.Owner = owner
	updated.Attr.Group = group

	// Full rotation: fresh metadata seed and MSK so stale split pointers
	// and cached MEKs become useless, fresh data keys so ex-class members
	// lose data access.
	stop := s.crypto("rotate-meta-keys")
	updated.Keys.MetaSeed = sharocrypto.NewSymKey()
	msk, _ := sharocrypto.NewSigningPair()
	updated.Keys.MSK = msk
	stop()

	kvs, err := s.rekeyData(r, &updated)
	if err != nil {
		return err
	}

	if r.ino == s.root.ino {
		sbkvs, err := s.sealSuperblocks(&updated)
		if err != nil {
			return err
		}
		kvs = append(kvs, sbkvs...)
		// Our own root reference changes with the rotation.
		v := s.eng.UserVariant(s.user.ID, updated.Attr)
		s.root = ref{ino: r.ino, variant: v.ID, mek: v.MEK(&updated), mvk: updated.Keys.MSK.VerifyKey()}
	} else {
		pr, pm, base, err := s.resolveParent(path)
		if err != nil {
			return err
		}
		if err := s.requireDirWriter(pm); err != nil {
			return fmt.Errorf("chown needs write permission on the parent directory: %w", err)
		}
		tables, err := s.loadParentTables(pr, pm, nil, nil)
		if err != nil {
			return err
		}
		grants, err := layout.BuildRows(s.eng, pm, tables, base, &updated)
		if err != nil {
			return err
		}
		kvs = append(kvs, grants...)
		tkvs, err := s.writeParentTables(pr, pm, tables)
		if err != nil {
			return err
		}
		kvs = append(kvs, tkvs...)
	}

	kvs = append(kvs, s.sealMetaVariants(&updated)...)
	return s.store.BatchPut(kvs)
}

// sealSuperblocks seals one superblock per registered user for the
// namespace root described by rootMeta.
func (s *Session) sealSuperblocks(rootMeta *meta.Metadata) ([]wire.KV, error) {
	stop := s.crypto("seal-superblock")
	defer stop()
	return layout.BuildSuperblockKVs(s.eng, s.reg, s.fsid, rootMeta)
}
