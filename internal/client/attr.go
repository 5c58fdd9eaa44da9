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

// Chmod implements vfs.FS. When a class or an ACL grantee loses a
// capability, the data moves to fresh keys (or, with LazyRevocation, a
// file is marked for re-keying at the owner's next write).
func (s *Session) Chmod(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("chmod")
	defer end()
	if err != nil {
		return pathErr("chmod", path, err)
	}
	return pathErrNil("chmod", path, s.setAttr(path, attrMode, func(a *meta.Attr) error {
		if err := cap.ValidatePerm(a.Kind, perm); err != nil {
			return err
		}
		a.Perm = perm
		return nil
	}))
}

// Chown implements vfs.FS: change owner and/or group (an empty one is
// kept). Users change classes, so every key rotates, even when neither
// owner nor group moves: a self-chown is how an owner re-keys an object
// after a group membership change. It needs write permission on the
// parent directory, whose rows it re-routes — the one place Sharoes is
// stricter than local *nix. Chowning the namespace root instead re-seals
// every principal's superblock.
func (s *Session) Chown(path string, owner types.UserID, group types.GroupID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("chown")
	defer end()
	if err != nil {
		return pathErr("chown", path, err)
	}
	return pathErrNil("chown", path, s.setAttr(path, attrOwner, func(a *meta.Attr) error {
		if owner != "" {
			a.Owner = owner
		}
		if group != "" {
			a.Group = group
		}
		_, err := s.reg.UserKey(a.Owner)
		return err
	}))
}

// GetACL returns the object's per-user grants.
func (s *Session) GetACL(path string) ([]types.ACLEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("getacl")
	defer end()
	if err != nil {
		return nil, pathErr("getacl", path, err)
	}
	_, m, err := s.resolve(path)
	if err != nil {
		return nil, pathErr("getacl", path, err)
	}
	return m.Attr.CloneACL(), nil
}

// SetACL grants (or updates) a per-user permission on the object — the
// POSIX-ACL extension of §III-D2. Under Scheme-2 the grantee receives
// their own CAP copy ("a/<user>"), and the routing rows in the parent
// directory become split points, exactly the divergence mechanism the
// paper describes; Scheme-1 absorbs the grant into the user's existing
// per-user copy. Owner-only; like chown, it needs write permission on the
// parent directory (except on the root).
func (s *Session) SetACL(path string, user types.UserID, rights types.Triplet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("setacl")
	defer end()
	if err != nil {
		return pathErr("setacl", path, err)
	}
	return pathErrNil("setacl", path, s.setAttr(path, attrACL, func(a *meta.Attr) error {
		if err := s.aclGrantee(a, user); err != nil {
			return err
		}
		if _, err := cap.For(a.Kind, rights); err != nil {
			return err
		}
		a.SetACL(user, rights)
		return nil
	}))
}

// RemoveACL takes a per-user grant away. If the grantee's class gives
// them less, the data moves to fresh keys, as for a revoking chmod.
func (s *Session) RemoveACL(path string, user types.UserID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("removeacl")
	defer end()
	if err != nil {
		return pathErr("removeacl", path, err)
	}
	return pathErrNil("removeacl", path, s.setAttr(path, attrACL, func(a *meta.Attr) error {
		if err := s.aclGrantee(a, user); err != nil {
			return err
		}
		if !a.RemoveACL(user) {
			return types.ErrNotExist
		}
		return nil
	}))
}

// aclGrantee checks that user may hold an ACL entry on an object with
// attribute a: a registered user other than the owner.
func (s *Session) aclGrantee(a *meta.Attr, user types.UserID) error {
	if user == a.Owner {
		return fmt.Errorf("%w: the owner's rights are the owner triplet", types.ErrUnsupportedPerm)
	}
	_, err := s.reg.UserKey(user)
	return err
}

// attrOp is the kind of attribute change an operation makes, for the two
// rules that follow the operation rather than the attribute it leaves.
type attrOp uint8

const (
	attrMode  attrOp = iota // chmod
	attrACL                 // SetACL, RemoveACL: need write permission on the parent
	attrOwner               // chown: needs write permission on the parent, and rotates every key
)

// setAttr is the one path an owner's attribute change takes: change says
// how the attribute changes, and every copy is then sealed from the new
// attribute, once, in one batch (DESIGN.md §7.23):
//
//  1. resolve the object, check ownership, apply change to a copy;
//  2. a chown rotates the metadata seed and MSK (§7.7);
//  3. if anyone loses a capability (revokes), rotate the data keys — or,
//     for a file under LazyRevocation, mark it for the owner's next write;
//  4. a directory's tables are loaded once, reshaped for the new variant
//     set and sealed once, under the new metadata, when keys rotated or a
//     variant was added, dropped or changed CAP;
//  5. the parent's rows — at the root, the superblocks — are re-routed
//     when the variant set or the MEKs changed;
//  6. the metadata variants are sealed and the batch committed. A dropped
//     variant's copy goes with the blob the batch rewrites: only Scheme-2
//     drops a variant, and its copies share one blob per inode.
func (s *Session) setAttr(path string, op attrOp, change func(*meta.Attr) error) error {
	r, m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if err := s.requireOwner(m); err != nil {
		return err
	}
	updated := *m
	updated.Attr.ACL = m.Attr.CloneACL()
	if err := change(&updated.Attr); err != nil {
		return err
	}
	atRoot := r.ino == s.root.ino
	var pr ref
	var pm *meta.Metadata
	var base string
	if op != attrMode && !atRoot {
		if pr, pm, base, err = s.resolveParent(path); err != nil {
			return err
		}
		if err := s.requireDirWriter(pm); err != nil {
			return fmt.Errorf("chown and ACL changes need write permission on the parent directory: %w", err)
		}
	}

	if op == attrOwner {
		stop := s.crypto("rotate-meta-keys")
		updated.Keys.MetaSeed = sharocrypto.NewSymKey()
		updated.Keys.MSK, _ = sharocrypto.NewSigningPair()
		stop()
	}
	rekey := op == attrOwner || s.revokes(m.Attr, updated.Attr)
	dropped, rerouted, reshaped := diffVariants(s.eng.Variants(m.Attr), s.eng.Variants(updated.Attr))

	var w write
	if updated.Attr.Kind == types.KindDir {
		if rekey || reshaped {
			// The views open under the old keys, so they load before the
			// rotation.
			tables, err := s.loadParentTables(r, m, nil, nil)
			if err != nil {
				return err
			}
			if rekey {
				s.rotateDataKeys(&updated)
			}
			// An ACL on a directory grants rights on this directory only:
			// a new grantee's view starts from the rows of the view they
			// read before.
			for _, e := range updated.Attr.ACL {
				if id := s.eng.UserVariant(e.User, updated.Attr).ID; tables[id] == nil {
					tables[id] = tables[s.eng.UserVariant(e.User, m.Attr).ID].Clone()
				}
			}
			for _, id := range dropped {
				delete(tables, id)
				w.add(wire.KV{NS: wire.NSData, Key: meta.TableKey(r.ino, id), Delete: true})
			}
			if err := s.writeParentTables(&w, r, &updated, tables); err != nil {
				return err
			}
		}
	} else if rekey {
		if s.lazy {
			updated.Attr.Flags |= meta.FlagRekeyPending
		} else if err := s.rekeyFile(&w, r, &updated); err != nil {
			return err
		}
	}
	if op == attrOwner || rerouted {
		if atRoot {
			sbkvs, err := s.sealSuperblocks(&updated)
			if err != nil {
				return err
			}
			w.add(sbkvs...)
		} else {
			ptables, err := s.loadParentTables(pr, pm, nil, nil)
			if err != nil {
				return err
			}
			grants, err := layout.BuildRows(s.eng, pm, ptables, base, &updated)
			if err != nil {
				return err
			}
			w.add(grants...)
			if err := s.writeParentTables(&w, pr, pm, ptables); err != nil {
				return err
			}
		}
	}
	if err := s.sealMetaVariants(&w, &updated); err != nil {
		return err
	}
	if err := s.commit(&w, true); err != nil {
		return err
	}
	if atRoot {
		// The session's own root reference follows a rotation or a move.
		v := s.eng.UserVariant(s.user.ID, updated.Attr)
		s.root = ref{ino: r.ino, variant: v.ID, mek: v.MEK(&updated), mvk: updated.Keys.MSK.VerifyKey()}
	}
	return nil
}

// revokes reports whether moving an object from attribute old to now
// takes a capability from anyone: the group class, the other class, or
// a user an ACL entry of either names. The owner is not asked: owner
// copies hold every key (§7.2).
func (s *Session) revokes(old, now meta.Attr) bool {
	if loses(old.Kind, old.Perm.Group(), now.Perm.Group()) || loses(old.Kind, old.Perm.Other(), now.Perm.Other()) {
		return true
	}
	for _, acl := range [][]types.ACLEntry{old.ACL, now.ACL} {
		for _, e := range acl {
			if loses(old.Kind, old.EffectiveTriplet(e.User, s.reg.IsMember), now.EffectiveTriplet(e.User, s.reg.IsMember)) {
				return true
			}
		}
	}
	return false
}

// loses reports whether a principal moving from triplet from to triplet
// to on an object of the given kind loses a capability.
func loses(kind types.ObjKind, from, to types.Triplet) bool {
	a, _ := cap.For(kind, from)
	b, _ := cap.For(kind, to)
	return a.CanReadData() && !b.CanReadData() || a.CanWriteData() && !b.CanWriteData() ||
		a.CanList() && !b.CanList() || a.CanTraverse() && !b.CanTraverse() ||
		a.CanModifyDir() && !b.CanModifyDir()
}

// diffVariants compares an object's variant sets before and after an
// attribute change: the IDs dropped, whether the set of IDs changed (who
// reads which copy: the parent's rows), and whether that or any
// variant's CAP changed (the shape of a directory's views).
func diffVariants(old, now []layout.Variant) (dropped []string, rerouted, reshaped bool) {
	caps := make(map[string]cap.ID, len(now))
	for _, v := range now {
		caps[v.ID] = v.Cap
	}
	for _, v := range old {
		c, ok := caps[v.ID]
		if !ok {
			dropped = append(dropped, v.ID)
		}
		reshaped = reshaped || c != v.Cap
	}
	rerouted = len(dropped) > 0 || len(now) != len(old)
	return dropped, rerouted, reshaped || rerouted
}

// rekeyFile rotates a file's data keys on m and adds to w the KVs that
// re-encrypt its content under them and drop the old generation's
// blocks. This is the immediate revocation of the paper (§IV-A1): a
// revoked reader may have cached the DEK, so the content must move to
// keys they never saw.
func (s *Session) rekeyFile(w *write, r ref, m *meta.Metadata) error {
	man, pre, err := s.fetchManifest(r, m, nil, withContent)
	if err != nil {
		return err
	}
	content, err := s.readBlocks(nil, r, m, man, 0, man.NBlocks, pre)
	if err != nil {
		return err
	}
	oldGen := m.Attr.DataGen
	s.rotateDataKeys(m)
	// Same content in blocks of the same size: the tail, if there is one,
	// is overwritten in place under its generation-free key.
	if err := s.sealFileData(w, m, content, man.BlockSize, time.Now().UnixNano()); err != nil {
		return err
	}
	old, err := s.list(wire.NSData, meta.BlockPrefix(r.ino, oldGen))
	if err != nil {
		return err
	}
	for _, it := range old {
		w.add(wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
	}
	return nil
}

// rotateDataKeys rotates an object's data keys in place on m — fresh DEK,
// DataSeed and signing pair, next data generation — and clears a pending
// lazy re-keying. The caller re-seals what the old keys sealed.
func (s *Session) rotateDataKeys(m *meta.Metadata) {
	stop := s.crypto("rotate-data-keys")
	dsk, dvk := sharocrypto.NewSigningPair()
	m.Keys.DEK = sharocrypto.NewSymKey()
	m.Keys.DataSeed = sharocrypto.NewSymKey()
	m.Keys.DSK, m.Keys.DVK = dsk, dvk
	m.Attr.DataGen++
	m.Attr.Flags &^= meta.FlagRekeyPending
	stop()
}

// sealMetaVariants seals every CAP copy of the metadata into w; commit
// then forgets the copies the session had cached.
func (s *Session) sealMetaVariants(w *write, m *meta.Metadata) error {
	kvs, err := s.eng.SealMeta(s.clock("seal-meta"), m, s.eng.Variants(m.Attr))
	if err != nil {
		return err
	}
	w.add(kvs...)
	return nil
}

// stageOwnMeta stages, out of the metadata copies of m that w seals, the
// one the session user reads, charged as a reader of it is: their next
// walk into the object, or Stat of it, reads nothing.
func (s *Session) stageOwnMeta(w *write, m *meta.Metadata) {
	own := s.eng.UserVariant(s.user.ID, m.Attr)
	ownKey := s.eng.MetaKey(m.Attr.Inode, own.ID)
	for _, kv := range w.kvs {
		if kv.NS == wire.NSMeta && kv.Key == ownKey {
			w.stage(ckMeta+kv.Key, metaCopy{own.ID, s.eng.MetaCopy(m, own)}, int64(s.eng.CopyLen(kv.Val, own.ID)))
		}
	}
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

// sealSuperblocks seals one superblock per registered user for the
// namespace root described by rootMeta.
func (s *Session) sealSuperblocks(rootMeta *meta.Metadata) ([]wire.KV, error) {
	stop := s.crypto("seal-superblock")
	defer stop()
	return layout.BuildSuperblockKVs(s.eng, s.reg, s.fsid, rootMeta)
}
