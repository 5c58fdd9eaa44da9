// Package layout implements the two metadata layout schemes of the paper
// (§III-D): how multiple CAPs per object are materialized at the SSP.
//
// Scheme-1 replicates the filesystem tree per user: every registered user
// has their own sealed copy of every metadata object and directory-table
// view, built for that user's accessor class. Simple, split-free, but with
// O(users) storage and update cost — the paper estimates ~$0.60 per user
// per month for a million-file system at 2008 Amazon S3 prices.
//
// Scheme-2 shares copies between users: one variant per accessor class
// (owner / group / other) of the object. Users whose class on a parent
// directory matches travel together through that directory's table view;
// when co-travellers diverge on a child — e.g. "/home" is class-other for
// everyone, but each "/home/<user>" is class-owner for exactly one of
// them — the row becomes a split point and each affected principal follows
// a pointer sealed with their public key (the only extra public-key
// cryptography in the design, and rare because permissions inherit).
package layout

import (
	"fmt"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// Variant names one sealed copy of an object's metadata (and, for
// directories, table view) together with the CAP it encodes.
type Variant struct {
	// ID is the storage-key fragment: "u/<user>" under Scheme-1, a class
	// letter ("o", "g", "t") under Scheme-2.
	ID string
	// Cap is the CAP this variant's content encodes.
	Cap cap.ID
}

// MEK returns the variant's metadata encryption key, derived from the
// object's metadata seed.
func (v Variant) MEK(m *meta.Metadata) sharocrypto.SymKey {
	return cap.MEKFor(m.Keys.MetaSeed, v.ID)
}

// Engine is a layout scheme: which copies of an object exist, and how
// each is sealed.
type Engine interface {
	// Name identifies the scheme ("scheme1" or "scheme2").
	Name() string
	// Variants returns every sealed copy an object with the given
	// attributes requires.
	Variants(attr meta.Attr) []Variant
	// FixedVariants returns the IDs of the copies every object has
	// whatever its attributes, so that their storage keys can be named
	// from the inode alone, before the object's metadata is open.
	FixedVariants() []string
	// UserVariant returns the copy the given user reads for the object.
	UserVariant(user types.UserID, attr meta.Attr) Variant
	// Row builds the directory-table row for a child as it should appear
	// in the parent variant pv. When co-travelling users diverge on the
	// child, the row is a split point and the second return value carries
	// the sealed per-principal pointers to store (Scheme-2 only).
	Row(parentAttr meta.Attr, pv Variant, child *meta.Metadata) (meta.DirEntry, []wire.KV, error)
	// Sealer is how the system seals, opens and keys each blob.
	Sealer
}

// classes are the accessor classes, in Scheme-2 variant order.
var classes = []types.Class{types.ClassOwner, types.ClassGroup, types.ClassOther}

// classVariantID maps an accessor class to its Scheme-2 variant ID.
func classVariantID(c types.Class) string {
	switch c {
	case types.ClassOwner:
		return "o"
	case types.ClassGroup:
		return "g"
	default:
		return "t"
	}
}

// aclVariantID is the Scheme-2 variant ID of a per-user ACL grant — the
// POSIX-ACL extension the paper names as the usual split-point cause
// (§III-D2).
func aclVariantID(u types.UserID) string { return "a/" + string(u) }

// classOfVariantID inverts classVariantID.
func classOfVariantID(id string) (types.Class, error) {
	switch id {
	case "o":
		return types.ClassOwner, nil
	case "g":
		return types.ClassGroup, nil
	case "t":
		return types.ClassOther, nil
	default:
		return 0, fmt.Errorf("layout: bad scheme-2 variant %q", id)
	}
}

// capForTriplet maps an explicit triplet onto a CAP id.
func capForTriplet(kind types.ObjKind, t types.Triplet, owner bool) cap.ID {
	c, _ := cap.For(kind, t)
	return cap.ID{Class: c, Owner: owner}
}

// Scheme2 shares CAP copies by accessor class.
type Scheme2 struct {
	signed
	reg *keys.Registry
}

// NewScheme2 builds a Scheme-2 engine over the enterprise registry.
func NewScheme2(reg *keys.Registry) *Scheme2 { return &Scheme2{reg: reg} }

// Name implements Engine.
func (s *Scheme2) Name() string { return "scheme2" }

// Variants implements Engine: one copy per accessor class, plus one per
// ACL grantee.
func (s *Scheme2) Variants(attr meta.Attr) []Variant {
	out := make([]Variant, 0, len(classes)+len(attr.ACL))
	for _, c := range classes {
		out = append(out, Variant{
			ID:  classVariantID(c),
			Cap: cap.IDFor(attr.Kind, attr.Perm, c),
		})
	}
	for _, e := range attr.ACL {
		if e.User == attr.Owner {
			continue // the owner's rights are the owner triplet
		}
		out = append(out, Variant{ID: aclVariantID(e.User), Cap: capForTriplet(attr.Kind, e.Rights, false)})
	}
	return out
}

// FixedVariants implements Engine: the three class copies. ACL copies
// exist only for the grantees the object's ACL names.
func (s *Scheme2) FixedVariants() []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = classVariantID(c)
	}
	return out
}

// UserVariant implements Engine: owner, then ACL grant, then group, then
// other — the POSIX precedence order.
func (s *Scheme2) UserVariant(user types.UserID, attr meta.Attr) Variant {
	if user == attr.Owner {
		return Variant{ID: "o", Cap: cap.IDFor(attr.Kind, attr.Perm, types.ClassOwner)}
	}
	if e, ok := attr.ACLFor(user); ok {
		return Variant{ID: aclVariantID(user), Cap: capForTriplet(attr.Kind, e.Rights, false)}
	}
	c := s.reg.ClassOf(user, attr.Owner, attr.Group)
	return Variant{ID: classVariantID(c), Cap: cap.IDFor(attr.Kind, attr.Perm, c)}
}

// travellers returns the users who read parent variant pv: those whose
// UserVariant on the parent is that copy.
func (s *Scheme2) travellers(parentAttr meta.Attr, pvID string) ([]types.UserID, error) {
	if _, err := classOfVariantID(pvID); err != nil && len(pvID) < 3 {
		return nil, err
	}
	var out []types.UserID
	for _, u := range s.reg.Users() {
		if s.UserVariant(u, parentAttr).ID == pvID {
			out = append(out, u)
		}
	}
	return out, nil
}

// Row implements Engine. The row links directly to one child variant when
// every traveller of the parent variant lands on the same child copy;
// otherwise it becomes a split point with per-user sealed pointers.
func (s *Scheme2) Row(parentAttr meta.Attr, pv Variant, child *meta.Metadata) (meta.DirEntry, []wire.KV, error) {
	users, err := s.travellers(parentAttr, pv.ID)
	if err != nil {
		return meta.DirEntry{}, nil, err
	}
	mvk := child.Keys.MSK.VerifyKey()

	// Each traveller's copy of the child.
	uniform := true
	childVars := make([]Variant, len(users))
	for i, u := range users {
		childVars[i] = s.UserVariant(u, child.Attr)
		if childVars[i].ID != childVars[0].ID {
			uniform = false
		}
	}

	if len(users) == 0 {
		// Nobody travels here today; link deterministically to the child
		// variant of the same class so future users resolve sensibly.
		class, err := classOfVariantID(pv.ID)
		if err != nil {
			class = types.ClassOther
		}
		cv := Variant{ID: classVariantID(class), Cap: cap.IDFor(child.Attr.Kind, child.Attr.Perm, class)}
		return directEntry(child, cv, mvk), nil, nil
	}

	if uniform {
		return directEntry(child, childVars[0], mvk), nil, nil
	}

	// Split point: each traveller gets a pointer sealed to their key.
	grants := make([]wire.KV, 0, len(users))
	for i, u := range users {
		ptr := &meta.SplitPointer{
			Inode:   child.Attr.Inode,
			Variant: childVars[i].ID,
			MEK:     childVars[i].MEK(child),
			MVK:     mvk,
		}
		pub, err := s.reg.UserKey(u)
		if err != nil {
			return meta.DirEntry{}, nil, fmt.Errorf("layout: split grant for %q: %w", u, err)
		}
		sealed, err := meta.SealSplitPointer(ptr, pub)
		if err != nil {
			return meta.DirEntry{}, nil, fmt.Errorf("layout: split grant for %q: %w", u, err)
		}
		grants = append(grants, wire.KV{
			NS:  wire.NSSplit,
			Key: meta.SplitKey(child.Attr.Inode, keys.UserPrincipal(u).String()),
			Val: sealed,
		})
	}
	return meta.DirEntry{Inode: child.Attr.Inode, Split: true}, grants, nil
}

// directEntry builds a non-split row linking to one child variant.
func directEntry(child *meta.Metadata, cv Variant, mvk sharocrypto.VerifyKey) meta.DirEntry {
	return meta.DirEntry{
		Inode:   child.Attr.Inode,
		Variant: cv.ID,
		MEK:     cv.MEK(child),
		MVK:     mvk,
	}
}

// Scheme1 replicates the tree per user.
type Scheme1 struct {
	signed
	reg *keys.Registry
}

// NewScheme1 builds a Scheme-1 engine over the enterprise registry.
func NewScheme1(reg *keys.Registry) *Scheme1 {
	return &Scheme1{signed: signed{perCopy: true}, reg: reg}
}

// Name implements Engine.
func (s *Scheme1) Name() string { return "scheme1" }

// userVariantID maps a user to their Scheme-1 variant ID.
func userVariantID(u types.UserID) string { return "u/" + string(u) }

// Variants implements Engine: one copy per registered user. ACL grants
// change the copy's content, never the variant set — Scheme-1 absorbs
// ACLs for free at its usual storage price.
func (s *Scheme1) Variants(attr meta.Attr) []Variant {
	users := s.reg.Users()
	out := make([]Variant, 0, len(users))
	for _, u := range users {
		out = append(out, s.UserVariant(u, attr))
	}
	return out
}

// FixedVariants implements Engine: one copy per registered user, which is
// every copy there is.
func (s *Scheme1) FixedVariants() []string {
	users := s.reg.Users()
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = userVariantID(u)
	}
	return out
}

// UserVariant implements Engine.
func (s *Scheme1) UserVariant(user types.UserID, attr meta.Attr) Variant {
	trip := attr.EffectiveTriplet(user, s.reg.IsMember)
	return Variant{ID: userVariantID(user), Cap: capForTriplet(attr.Kind, trip, user == attr.Owner)}
}

// Row implements Engine. Per-user trees never split: the row in user u's
// view of the parent table points at u's variant of the child.
func (s *Scheme1) Row(parentAttr meta.Attr, pv Variant, child *meta.Metadata) (meta.DirEntry, []wire.KV, error) {
	if len(pv.ID) < 3 || pv.ID[:2] != "u/" {
		return meta.DirEntry{}, nil, fmt.Errorf("layout: bad scheme-1 variant %q", pv.ID)
	}
	u := types.UserID(pv.ID[2:])
	cv := s.UserVariant(u, child.Attr)
	return meta.DirEntry{
		Inode:   child.Attr.Inode,
		Variant: cv.ID,
		MEK:     cv.MEK(child),
		MVK:     child.Keys.MSK.VerifyKey(),
	}, nil, nil
}
