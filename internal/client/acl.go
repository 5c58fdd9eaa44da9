package client

import (
	"fmt"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// GetACL returns the object's per-user grants.
func (s *Session) GetACL(path string) ([]types.ACLEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("getacl")()
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
// parent directory to recompute the routing rows (except on the root).
func (s *Session) SetACL(path string, user types.UserID, rights types.Triplet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("setacl")()
	return pathErrNil("setacl", path, s.setACL(path, user, &rights))
}

// RemoveACL revokes a per-user grant. The object's data keys rotate
// (immediate revocation) so the grantee's cached keys open nothing.
func (s *Session) RemoveACL(path string, user types.UserID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("removeacl")()
	return pathErrNil("removeacl", path, s.setACL(path, user, nil))
}

// setACL applies a grant (rights != nil) or a revocation (rights == nil).
func (s *Session) setACL(path string, user types.UserID, rights *types.Triplet) error {
	r, m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if err := s.requireOwner(m); err != nil {
		return err
	}
	if user == m.Attr.Owner {
		return fmt.Errorf("%w: the owner's rights are the owner triplet", types.ErrUnsupportedPerm)
	}
	if _, err := s.reg.UserKey(user); err != nil {
		return err
	}

	updated := *m
	updated.Attr.ACL = m.Attr.CloneACL()
	oldTrip := m.Attr.EffectiveTriplet(user, s.reg.IsMember)
	var newTrip types.Triplet
	if rights != nil {
		if _, err := cap.For(m.Attr.Kind, *rights); err != nil {
			return err
		}
		updated.Attr.SetACL(user, *rights)
		newTrip = *rights
	} else {
		if !updated.Attr.RemoveACL(user) {
			return types.ErrNotExist
		}
		newTrip = updated.Attr.EffectiveTriplet(user, s.reg.IsMember)
	}

	var kvs []wire.KV

	// Revocation: if the user loses a capability they held, rotate the
	// data keys (or, for files under lazy revocation, defer), as chmod
	// does.
	if tripletRevokes(m.Attr.Kind, oldTrip, newTrip) {
		if s.lazy && m.Attr.Kind == types.KindFile {
			updated.Attr.Flags |= meta.FlagRekeyPending
		} else {
			rk, err := s.rekeyData(r, &updated)
			if err != nil {
				return err
			}
			kvs = append(kvs, rk...)
		}
	}

	// For directories, every variant's view must exist under the new
	// variant set. A fresh ACL variant starts from the rows of the class
	// view the grantee would otherwise use: an ACL on a directory grants
	// rights on *this* directory; on its children the grantee keeps
	// whatever their own status there gives them (POSIX semantics).
	if updated.Attr.Kind == types.KindDir {
		tables, err := s.loadParentTables(r, m, nil, nil)
		if err != nil {
			return err
		}
		if rights != nil {
			classVariant := s.eng.UserVariant(user, stripACL(m.Attr, user)).ID
			newID := s.eng.UserVariant(user, updated.Attr).ID
			if _, ok := tables[newID]; !ok {
				if src, ok := tables[classVariant]; ok {
					tables[newID] = src.Clone()
				} else {
					tables[newID] = &meta.DirTable{}
				}
			}
		} else {
			// Drop the revoked variant's view.
			oldID := s.eng.UserVariant(user, m.Attr).ID
			if oldID != s.eng.UserVariant(user, updated.Attr).ID {
				delete(tables, oldID)
				kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.TableKey(r.ino, oldID), Delete: true})
				s.cache.Delete(ckWTable + meta.TableKey(r.ino, oldID))
			}
		}
		tkvs, err := s.writeParentTablesFor(r, &updated, tables)
		if err != nil {
			return err
		}
		kvs = append(kvs, tkvs...)
	}

	// Stale metadata copies for a removed variant must not linger.
	if rights == nil {
		oldID := s.eng.UserVariant(user, m.Attr).ID
		if oldID != s.eng.UserVariant(user, updated.Attr).ID {
			kvs = append(kvs, wire.KV{NS: wire.NSMeta, Key: meta.MetaKey(r.ino, oldID), Delete: true})
		}
	}
	kvs = append(kvs, s.sealMetaVariants(&updated)...)

	// Re-route the parent's rows for this object: the grantee now
	// diverges from (or rejoins) their class co-travellers.
	if r.ino == s.root.ino {
		sbkvs, err := s.sealSuperblocks(&updated)
		if err != nil {
			return err
		}
		kvs = append(kvs, sbkvs...)
	} else {
		pr, pm, base, err := s.resolveParent(path)
		if err != nil {
			return err
		}
		if err := s.requireDirWriter(pm); err != nil {
			return fmt.Errorf("ACL changes need write permission on the parent directory: %w", err)
		}
		ptables, err := s.loadParentTables(pr, pm, nil, nil)
		if err != nil {
			return err
		}
		grants, err := layout.BuildRows(s.eng, pm, ptables, base, &updated)
		if err != nil {
			return err
		}
		kvs = append(kvs, grants...)
		pkvs, err := s.writeParentTables(pr, pm, ptables)
		if err != nil {
			return err
		}
		kvs = append(kvs, pkvs...)
	}

	return s.store.BatchPut(kvs)
}

// stripACL returns attr without user's ACL entry, for computing the class
// variant the user would use absent the grant.
func stripACL(attr meta.Attr, user types.UserID) meta.Attr {
	out := attr
	out.ACL = attr.CloneACL()
	out.RemoveACL(user)
	return out
}

// tripletRevokes reports whether moving a single user from oldTrip to
// newTrip strips a capability they held.
func tripletRevokes(kind types.ObjKind, oldTrip, newTrip types.Triplet) bool {
	oldC, _ := cap.For(kind, oldTrip)
	newC, _ := cap.For(kind, newTrip)
	if kind == types.KindFile {
		return (oldC.CanReadData() && !newC.CanReadData()) ||
			(oldC.CanWriteData() && !newC.CanWriteData())
	}
	return (oldC.CanList() && !newC.CanList()) ||
		(oldC.CanTraverse() && !newC.CanTraverse()) ||
		(oldC.CanModifyDir() && !newC.CanModifyDir())
}

// writeParentTablesFor is writeParentTables but sealing with an updated
// metadata whose variant set may differ from what was loaded.
func (s *Session) writeParentTablesFor(r ref, m *meta.Metadata, tables map[string]*meta.DirTable) ([]wire.KV, error) {
	return s.writeParentTables(r, m, tables)
}
