// Package cap implements Cryptographic Access control Primitives — the
// core contribution of the Sharoes paper (§III).
//
// A CAP replicates one *nix permission setting in the outsourced storage
// model by choosing which key fields of a metadata object are accessible
// and how the directory-table columns are encrypted:
//
//	directories              files
//	---------  -----------   ---------  ----------
//	---        zero          ---        zero
//	r--        read          r--        read
//	rw-        ≡ read        r-x        ≡ read
//	r-x        read-exec     rw-        read-write
//	rwx        rw-exec       rwx        ≡ read-write
//	--x        exec-only     -w-,-wx    unsupported
//	-w-        ≡ zero        --x        unsupported
//	-wx        unsupported
//
// The exec-only CAP is the most interesting: the directory table is
// decryptable (DEK accessible) but the name column is hidden, and each
// row's (inode, MEK, MVK) is encrypted under a key derived from the entry
// name with a keyed hash — so a user who knows a name can "cd" to it but
// cannot "ls".
package cap

import (
	"errors"
	"fmt"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// Class enumerates the distinct CAPs. Aliased permissions (e.g. rw- on a
// directory behaving as r--) collapse onto one class, which is what bounds
// the number of metadata replicas per object in Scheme-2.
type Class uint8

// CAP classes.
const (
	DirZero Class = iota + 1
	DirRead
	DirReadExec
	DirReadWriteExec
	DirExecOnly
	FileZero
	FileRead
	FileReadWrite
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case DirZero:
		return "dir:zero"
	case DirRead:
		return "dir:read"
	case DirReadExec:
		return "dir:read-exec"
	case DirReadWriteExec:
		return "dir:read-write-exec"
	case DirExecOnly:
		return "dir:exec-only"
	case FileZero:
		return "file:zero"
	case FileRead:
		return "file:read"
	case FileReadWrite:
		return "file:read-write"
	default:
		return fmt.Sprintf("cap(%d)", uint8(c))
	}
}

// ErrUnsupported wraps types.ErrUnsupportedPerm with the triplet involved.
var ErrUnsupported = types.ErrUnsupportedPerm

// ForDir maps a directory permission triplet onto its CAP class.
// Unsupported combinations (write-exec without read) fail closed to
// DirZero and return an error so that policy-setting paths can reject them.
func ForDir(t types.Triplet) (Class, error) {
	switch {
	case t.CanRead() && t.CanWrite() && t.CanExec():
		return DirReadWriteExec, nil
	case t.CanRead() && t.CanExec():
		return DirReadExec, nil
	case t.CanRead():
		// r-- and rw-: write is inert without exec (paper §III-A).
		return DirRead, nil
	case t.CanExec() && !t.CanWrite():
		return DirExecOnly, nil
	case t.CanExec() && t.CanWrite():
		// -wx: symmetric DEKs make writers able to read, so this cannot
		// be enforced cryptographically (paper §III-A, found in zero
		// directories across two real enterprises).
		return DirZero, fmt.Errorf("%w: directory -wx", ErrUnsupported)
	case t.CanWrite():
		// -w-: write without exec is inert; same CAP as zero.
		return DirZero, nil
	default:
		return DirZero, nil
	}
}

// ForFile maps a file permission triplet onto its CAP class. Write-only
// (symmetric DEK) and exec-only (execution implies reading plaintext) are
// unsupported, per the paper (§III-B).
func ForFile(t types.Triplet) (Class, error) {
	switch {
	case t.CanRead() && t.CanWrite():
		return FileReadWrite, nil
	case t.CanRead():
		// r-- and r-x: once decrypted the client can execute it.
		return FileRead, nil
	case t.CanWrite():
		return FileZero, fmt.Errorf("%w: file write-only", ErrUnsupported)
	case t.CanExec():
		return FileZero, fmt.Errorf("%w: file exec-only", ErrUnsupported)
	default:
		return FileZero, nil
	}
}

// For maps a triplet for the given object kind.
func For(kind types.ObjKind, t types.Triplet) (Class, error) {
	if kind == types.KindDir {
		return ForDir(t)
	}
	return ForFile(t)
}

// ValidatePerm rejects permission settings containing any unsupported
// triplet for the object kind. chmod, create and the migration tool all
// call this before installing a permission.
func ValidatePerm(kind types.ObjKind, p types.Perm) error {
	for _, c := range []types.Class{types.ClassOwner, types.ClassGroup, types.ClassOther} {
		if _, err := For(kind, p.TripletFor(c)); err != nil {
			return fmt.Errorf("%v triplet %s: %w", c, p.TripletFor(c), err)
		}
	}
	return nil
}

// Capability queries on a class.

// CanList reports whether the CAP permits listing directory entry names.
func (c Class) CanList() bool {
	return c == DirRead || c == DirReadExec || c == DirReadWriteExec
}

// CanTraverse reports whether the CAP permits descending through the
// directory to children.
func (c Class) CanTraverse() bool {
	return c == DirReadExec || c == DirReadWriteExec || c == DirExecOnly
}

// CanModifyDir reports whether the CAP permits adding and removing entries.
func (c Class) CanModifyDir() bool { return c == DirReadWriteExec }

// CanReadData reports whether the CAP permits reading file content.
func (c Class) CanReadData() bool { return c == FileRead || c == FileReadWrite }

// CanWriteData reports whether the CAP permits writing file content.
func (c Class) CanWriteData() bool { return c == FileReadWrite }

// IsDir reports whether the class applies to directories.
func (c Class) IsDir() bool { return c >= DirZero && c <= DirExecOnly }

// ID identifies one CAP variant of an object: the class plus whether this
// is the owner's copy (owner copies additionally carry the MSK and the
// metadata key seed, letting owners re-key and re-permission the object).
type ID struct {
	Class Class
	Owner bool
}

// Variant returns the stable variant identifier used in storage keys,
// directory-table rows and MEK derivation.
func (id ID) Variant() string {
	if id.Owner {
		return fmt.Sprintf("c%do", uint8(id.Class))
	}
	return fmt.Sprintf("c%d", uint8(id.Class))
}

// ParseVariant inverts Variant.
func ParseVariant(s string) (ID, error) {
	var c uint8
	var id ID
	if len(s) < 2 || s[0] != 'c' {
		return id, fmt.Errorf("cap: bad variant %q", s)
	}
	body := s[1:]
	if body[len(body)-1] == 'o' {
		id.Owner = true
		body = body[:len(body)-1]
	}
	if _, err := fmt.Sscanf(body, "%d", &c); err != nil {
		return id, fmt.Errorf("cap: bad variant %q", s)
	}
	id.Class = Class(c)
	if id.Class < DirZero || id.Class > FileReadWrite {
		return id, fmt.Errorf("cap: bad variant class %q", s)
	}
	return id, nil
}

// IDFor computes the CAP variant that a principal of the given accessor
// class receives under permission p. Unsupported triplets fail closed to
// the zero CAP (error discarded here; policy paths validate separately).
func IDFor(kind types.ObjKind, p types.Perm, class types.Class) ID {
	c, _ := For(kind, p.TripletFor(class))
	return ID{Class: c, Owner: class == types.ClassOwner}
}

// IDs returns the distinct CAP variants an object with permission p
// requires: one per accessor class, deduplicated (group and other classes
// sharing a triplet share a variant — the storage saving of Scheme-2).
// The owner variant is always distinct because it carries owner keys.
func IDs(kind types.ObjKind, p types.Perm) []ID {
	owner := IDFor(kind, p, types.ClassOwner)
	group := IDFor(kind, p, types.ClassGroup)
	other := IDFor(kind, p, types.ClassOther)
	out := []ID{owner, group}
	if other != group {
		out = append(out, other)
	}
	return out
}

// ErrNoKeys reports an access attempt whose CAP withholds the needed keys.
var ErrNoKeys = errors.New("cap: keys not accessible in this CAP")

// tableKeyLabel derives the per-variant directory-table key label.
func tableKeyLabel(variant string) string { return "table|" + variant }

// TableKey derives the DEKthis for one variant's view of a directory table
// from the directory's data seed. Distinct variants get distinct keys so a
// names-only reader cannot fetch and decrypt the full view.
func TableKey(m *meta.Metadata, variant string) sharocrypto.SymKey {
	return m.Keys.DataSeed.Derive(tableKeyLabel(variant))
}

// RowsKey derives the key a names-only view of a directory table seals
// its rows under. It derives from the data seed like TableKey, under a
// label no CAP's DEK slot holds, so only directory writers derive it.
func RowsKey(m *meta.Metadata, variant string) sharocrypto.SymKey {
	return m.Keys.DataSeed.Derive("rows|" + variant)
}

// Filter produces the CAP view of a full metadata object: attributes stay
// visible (stat works for anyone holding the variant MEK), key fields are
// included or withheld per the CAP design of Figures 4 and 5.
//
// full must carry the complete key set (creator/owner knowledge).
//
// Owner variants carry the complete key set regardless of the owner's own
// triplet: an owner can always chmod to grant themselves access, so
// withholding keys from the owner protects nothing, while holding them is
// what makes re-keying (revocation) and re-permissioning possible without
// out-of-band key escrow. The client still enforces the owner's triplet as
// policy, exactly as a local filesystem does.
func Filter(full *meta.Metadata, id ID, variant string) *meta.Metadata {
	out := &meta.Metadata{Attr: full.Attr}
	if id.Owner {
		out.Keys = full.Keys
		if id.Class.IsDir() {
			// The DEK slot of a directory variant always holds that
			// variant's derived table key.
			out.Keys.DEK = TableKey(full, variant)
		}
		return out
	}
	switch id.Class {
	case DirRead, DirReadExec, DirExecOnly:
		out.Keys.DEK = TableKey(full, variant)
		out.Keys.DVK = full.Keys.DVK
	case DirReadWriteExec:
		out.Keys.DEK = TableKey(full, variant)
		out.Keys.DVK = full.Keys.DVK
		out.Keys.DSK = full.Keys.DSK
		out.Keys.DataSeed = full.Keys.DataSeed
	case FileRead:
		out.Keys.DEK = full.Keys.DEK
		out.Keys.DVK = full.Keys.DVK
	case FileReadWrite:
		out.Keys.DEK = full.Keys.DEK
		out.Keys.DVK = full.Keys.DVK
		out.Keys.DSK = full.Keys.DSK
	case DirZero, FileZero:
		// no keys
	}
	return out
}

// MEKFor derives the MEK of one variant from the object's metadata seed.
// Knowing the seed (owner knowledge) is knowing every variant's MEK, which
// is what lets owners rewrite all CAP copies on chmod and chown.
func MEKFor(metaSeed sharocrypto.SymKey, variant string) sharocrypto.SymKey {
	return metaSeed.Derive("mek|" + variant)
}
