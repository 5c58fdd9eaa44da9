// Package meta defines the Sharoes on-SSP data structures: metadata
// objects, directory tables, superblocks, split-point pointers and file
// manifests, together with their sealed (encrypted + signed) encodings.
//
// A metadata object extends the traditional inode with key fields
// (paper Figure 2): the DEK, DSK and DVK for the object's data block, plus
// the MSK for owners. A directory table extends the ext2 table of
// (inode, name) with MEK and MVK columns (Figure 3), so the structure that
// leads to a child's metadata also provides the keys to decrypt and verify
// it — the heart of in-band key management. Which of these fields are
// present in a particular sealed copy is decided by the CAP being built
// (package cap); this package represents and transports them.
package meta

import (
	"errors"
	"fmt"
	"sort"

	"github.com/sharoes/sharoes/internal/binenc"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// Errors.
var (
	ErrBadEncoding = errors.New("meta: malformed structure")
	ErrNoEntry     = errors.New("meta: no such directory entry")
	ErrDupEntry    = errors.New("meta: duplicate directory entry")
)

// Attr is the plain-attribute part of a metadata object, visible in every
// CAP variant (the paper keeps inode#, type, owner, group and perms
// readable so that stat works for anyone who can decrypt the variant).
type Attr struct {
	Inode types.Inode
	Kind  types.ObjKind
	Owner types.UserID
	Group types.GroupID
	Perm  types.Perm
	Size  uint64
	MTime int64 // unix nanoseconds
	// DataGen is the data generation, bumped on revocation re-keying; it
	// is part of every data block's storage key and AAD, so stale blocks
	// become unreachable after an immediate revocation.
	DataGen uint64
	// Flags carries owner-signed object state; see FlagRekeyPending.
	Flags uint32
	// ACL holds per-user permission grants beyond the owner/group/other
	// model — the POSIX-ACL extension the paper names as the typical
	// cause of split points (§III-D2). Entries are kept sorted by user.
	ACL []types.ACLEntry
}

// ACLFor returns the ACL entry for u, if any.
func (a *Attr) ACLFor(u types.UserID) (types.ACLEntry, bool) {
	for _, e := range a.ACL {
		if e.User == u {
			return e, true
		}
	}
	return types.ACLEntry{}, false
}

// SetACL inserts or replaces u's entry, keeping the list sorted.
func (a *Attr) SetACL(u types.UserID, rights types.Triplet) {
	i := sort.Search(len(a.ACL), func(i int) bool { return a.ACL[i].User >= u })
	if i < len(a.ACL) && a.ACL[i].User == u {
		a.ACL[i].Rights = rights
		return
	}
	a.ACL = append(a.ACL, types.ACLEntry{})
	copy(a.ACL[i+1:], a.ACL[i:])
	a.ACL[i] = types.ACLEntry{User: u, Rights: rights}
}

// RemoveACL deletes u's entry if present, reporting whether it existed.
func (a *Attr) RemoveACL(u types.UserID) bool {
	for i, e := range a.ACL {
		if e.User == u {
			a.ACL = append(a.ACL[:i], a.ACL[i+1:]...)
			return true
		}
	}
	return false
}

// CloneACL returns a deep copy of the ACL slice.
func (a *Attr) CloneACL() []types.ACLEntry {
	if len(a.ACL) == 0 {
		return nil
	}
	out := make([]types.ACLEntry, len(a.ACL))
	copy(out, a.ACL)
	return out
}

// EffectiveTriplet evaluates the permission triplet applying to user u,
// given a membership oracle: owner bits for the owner, then the ACL
// entry, then group bits for members, then other.
func (a *Attr) EffectiveTriplet(u types.UserID, isMember func(types.GroupID, types.UserID) bool) types.Triplet {
	if u == a.Owner {
		return a.Perm.Owner()
	}
	if e, ok := a.ACLFor(u); ok {
		return e.Rights
	}
	if isMember(a.Group, u) {
		return a.Perm.Group()
	}
	return a.Perm.Other()
}

// FlagRekeyPending marks a lazy revocation (paper §IV-A1): the permission
// change has been applied but the data keys rotate only on the owner's
// next write, because the revoked reader may anyway have cached the
// content while authorized.
const FlagRekeyPending uint32 = 1 << 0

// KeySet carries the key fields of a metadata object. A zero key value
// means "inaccessible in this variant" — the shaded fields of the paper's
// CAP figures. Which fields are populated is exactly what distinguishes
// one CAP from another.
type KeySet struct {
	// DEK decrypts the object's data: file blocks and manifest, or this
	// variant's view of the directory table. Present with read (files) or
	// read/exec (directories).
	DEK sharocrypto.SymKey
	// DataSeed derives every variant's table key for a directory; writers
	// need it to re-encrypt all views when the table changes. Present with
	// write. Unused for files.
	DataSeed sharocrypto.SymKey
	// DVK verifies data signatures. Present whenever DEK is.
	DVK sharocrypto.VerifyKey
	// DSK signs data written to the object. Present with write.
	DSK sharocrypto.SignKey
	// MSK signs metadata updates. Present only in owner variants.
	MSK sharocrypto.SignKey
	// MetaSeed derives each variant's MEK; owners use it to rewrite every
	// CAP copy of the metadata (chmod, chown). Present only in owner
	// variants.
	MetaSeed sharocrypto.SymKey
}

// Metadata is a full (or CAP-filtered) metadata object.
type Metadata struct {
	Attr Attr
	Keys KeySet
}

// presence bits for KeySet fields in the encoding.
const (
	hasDEK = 1 << iota
	hasDataSeed
	hasDVK
	hasDSK
	hasMSK
	hasMetaSeed
)

// Encode serializes the metadata object (plaintext form).
func (m *Metadata) Encode() []byte {
	var w binenc.Writer
	w.Uvarint(uint64(m.Attr.Inode))
	w.Byte(byte(m.Attr.Kind))
	w.String(string(m.Attr.Owner))
	w.String(string(m.Attr.Group))
	w.Uvarint(uint64(m.Attr.Perm))
	w.Uvarint(m.Attr.Size)
	w.Uvarint(uint64(m.Attr.MTime))
	w.Uvarint(m.Attr.DataGen)
	w.Uvarint(uint64(m.Attr.Flags))
	w.Uvarint(uint64(len(m.Attr.ACL)))
	for _, e := range m.Attr.ACL {
		w.String(string(e.User))
		w.Byte(byte(e.Rights))
	}

	var mask byte
	if !m.Keys.DEK.IsZero() {
		mask |= hasDEK
	}
	if !m.Keys.DataSeed.IsZero() {
		mask |= hasDataSeed
	}
	if !m.Keys.DVK.IsZero() {
		mask |= hasDVK
	}
	if !m.Keys.DSK.IsZero() {
		mask |= hasDSK
	}
	if !m.Keys.MSK.IsZero() {
		mask |= hasMSK
	}
	if !m.Keys.MetaSeed.IsZero() {
		mask |= hasMetaSeed
	}
	w.Byte(mask)
	if mask&hasDEK != 0 {
		w.Raw(m.Keys.DEK[:])
	}
	if mask&hasDataSeed != 0 {
		w.Raw(m.Keys.DataSeed[:])
	}
	if mask&hasDVK != 0 {
		w.Raw(m.Keys.DVK.Marshal())
	}
	if mask&hasDSK != 0 {
		w.Raw(m.Keys.DSK.Marshal())
	}
	if mask&hasMSK != 0 {
		w.Raw(m.Keys.MSK.Marshal())
	}
	if mask&hasMetaSeed != 0 {
		w.Raw(m.Keys.MetaSeed[:])
	}
	return w.Bytes()
}

// Decode parses a metadata object.
func Decode(b []byte) (*Metadata, error) {
	r := binenc.NewReader(b)
	var m Metadata
	ino, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.Inode = types.Inode(ino)
	kind, err := r.Byte()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.Kind = types.ObjKind(kind)
	owner, err := r.String()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.Owner = types.UserID(owner)
	group, err := r.String()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.Group = types.GroupID(group)
	perm, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.Perm = types.Perm(perm)
	if m.Attr.Size, err = r.Uvarint(); err != nil {
		return nil, badEnc(err)
	}
	mtime, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.MTime = int64(mtime)
	if m.Attr.DataGen, err = r.Uvarint(); err != nil {
		return nil, badEnc(err)
	}
	flags, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.Attr.Flags = uint32(flags)
	nACL, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	if nACL > uint64(r.Remaining()) {
		return nil, badEnc(fmt.Errorf("absurd ACL count %d", nACL))
	}
	for i := uint64(0); i < nACL; i++ {
		u, err := r.String()
		if err != nil {
			return nil, badEnc(err)
		}
		rights, err := r.Byte()
		if err != nil {
			return nil, badEnc(err)
		}
		m.Attr.ACL = append(m.Attr.ACL, types.ACLEntry{User: types.UserID(u), Rights: types.Triplet(rights)})
	}

	mask, err := r.Byte()
	if err != nil {
		return nil, badEnc(err)
	}
	if mask&hasDEK != 0 {
		raw, err := r.Raw(sharocrypto.SymKeySize)
		if err != nil {
			return nil, badEnc(err)
		}
		copy(m.Keys.DEK[:], raw)
	}
	if mask&hasDataSeed != 0 {
		raw, err := r.Raw(sharocrypto.SymKeySize)
		if err != nil {
			return nil, badEnc(err)
		}
		copy(m.Keys.DataSeed[:], raw)
	}
	if mask&hasDVK != 0 {
		raw, err := r.Raw(sharocrypto.VerifyKeySize)
		if err != nil {
			return nil, badEnc(err)
		}
		if m.Keys.DVK, err = sharocrypto.VerifyKeyFromBytes(raw); err != nil {
			return nil, badEnc(err)
		}
	}
	if mask&hasDSK != 0 {
		raw, err := r.Raw(sharocrypto.SignKeySeedSize)
		if err != nil {
			return nil, badEnc(err)
		}
		if m.Keys.DSK, err = sharocrypto.SignKeyFromBytes(raw); err != nil {
			return nil, badEnc(err)
		}
	}
	if mask&hasMSK != 0 {
		raw, err := r.Raw(sharocrypto.SignKeySeedSize)
		if err != nil {
			return nil, badEnc(err)
		}
		if m.Keys.MSK, err = sharocrypto.SignKeyFromBytes(raw); err != nil {
			return nil, badEnc(err)
		}
	}
	if mask&hasMetaSeed != 0 {
		raw, err := r.Raw(sharocrypto.SymKeySize)
		if err != nil {
			return nil, badEnc(err)
		}
		copy(m.Keys.MetaSeed[:], raw)
	}
	return &m, nil
}

func badEnc(err error) error { return fmt.Errorf("%w: %w", ErrBadEncoding, err) }

// DirEntry is one row of a directory table: the ext2 (inode, name) columns
// plus the MEK and MVK columns Sharoes adds (paper Figure 3).
type DirEntry struct {
	Name  string
	Inode types.Inode
	// Variant identifies which sealed copy of the child's metadata this
	// row's MEK opens ("u/<user>" under Scheme-1, "c/<capid>" under
	// Scheme-2). Opaque to this package.
	Variant string
	MEK     sharocrypto.SymKey
	MVK     sharocrypto.VerifyKey
	// Split marks a split point (paper §III-D2): the users travelling on
	// this table diverge on the child, so MEK/MVK are not stored here;
	// each affected principal instead follows a public-key-sealed pointer
	// in the split namespace.
	Split bool
}

// DirTable is the data block of a directory. Entries are kept sorted by
// name so encodings are deterministic (tables are signed).
type DirTable struct {
	Entries []DirEntry
}

// Lookup finds the entry for name.
func (t *DirTable) Lookup(name string) (*DirEntry, error) {
	i := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Name >= name })
	if i < len(t.Entries) && t.Entries[i].Name == name {
		return &t.Entries[i], nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoEntry, name)
}

// Insert adds an entry, failing on duplicates.
func (t *DirTable) Insert(e DirEntry) error {
	i := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Name >= e.Name })
	if i < len(t.Entries) && t.Entries[i].Name == e.Name {
		return fmt.Errorf("%w: %q", ErrDupEntry, e.Name)
	}
	t.Entries = append(t.Entries, DirEntry{})
	copy(t.Entries[i+1:], t.Entries[i:])
	t.Entries[i] = e
	return nil
}

// Remove deletes the entry for name.
func (t *DirTable) Remove(name string) error {
	i := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Name >= name })
	if i >= len(t.Entries) || t.Entries[i].Name != name {
		return fmt.Errorf("%w: %q", ErrNoEntry, name)
	}
	t.Entries = append(t.Entries[:i], t.Entries[i+1:]...)
	return nil
}

// Replace updates the entry for e.Name, which must exist.
func (t *DirTable) Replace(e DirEntry) error {
	cur, err := t.Lookup(e.Name)
	if err != nil {
		return err
	}
	*cur = e
	return nil
}

// Names returns the entry names in order.
func (t *DirTable) Names() []string {
	out := make([]string, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.Name
	}
	return out
}

// Len returns the number of entries.
func (t *DirTable) Len() int { return len(t.Entries) }

// Clone returns a deep copy.
func (t *DirTable) Clone() *DirTable {
	out := &DirTable{Entries: make([]DirEntry, len(t.Entries))}
	copy(out.Entries, t.Entries)
	return out
}

// encodeEntry writes one row.
func encodeEntry(w *binenc.Writer, e *DirEntry) {
	w.String(e.Name)
	w.Uvarint(uint64(e.Inode))
	w.String(e.Variant)
	w.Bool(e.Split)
	if e.Split {
		return
	}
	w.Raw(e.MEK[:])
	mvk := e.MVK.Marshal()
	w.BytesField(mvk)
}

func decodeEntry(r *binenc.Reader) (DirEntry, error) {
	var e DirEntry
	var err error
	if e.Name, err = r.String(); err != nil {
		return e, err
	}
	ino, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	e.Inode = types.Inode(ino)
	if e.Variant, err = r.String(); err != nil {
		return e, err
	}
	if e.Split, err = r.Bool(); err != nil {
		return e, err
	}
	if e.Split {
		return e, nil
	}
	raw, err := r.Raw(sharocrypto.SymKeySize)
	if err != nil {
		return e, err
	}
	copy(e.MEK[:], raw)
	mvkRaw, err := r.BytesField()
	if err != nil {
		return e, err
	}
	if len(mvkRaw) > 0 {
		if e.MVK, err = sharocrypto.VerifyKeyFromBytes(mvkRaw); err != nil {
			return e, err
		}
	}
	return e, nil
}

// Encode serializes the full-fidelity table (all four columns). CAP views
// with fewer visible columns are produced by package cap.
func (t *DirTable) Encode() []byte {
	var w binenc.Writer
	w.Uvarint(uint64(len(t.Entries)))
	for i := range t.Entries {
		encodeEntry(&w, &t.Entries[i])
	}
	return w.Bytes()
}

// DecodeTable parses a table produced by Encode.
func DecodeTable(b []byte) (*DirTable, error) {
	r := binenc.NewReader(b)
	n, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	if n > uint64(r.Remaining()) {
		return nil, badEnc(fmt.Errorf("absurd entry count %d", n))
	}
	t := &DirTable{Entries: make([]DirEntry, 0, n)}
	for i := uint64(0); i < n; i++ {
		e, err := decodeEntry(r)
		if err != nil {
			return nil, badEnc(err)
		}
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

// Manifest describes a file's data layout: size, block geometry and mtime.
// It is sealed with the DEK and signed with the DSK, so ordinary writers —
// who hold no MSK — can update it, while readers can verify it. (The
// paper's metadata carries size/mtime too; splitting the writer-mutable
// part out lets metadata remain owner-signed.)
type Manifest struct {
	Size      uint64
	BlockSize uint32
	NBlocks   uint32
	MTime     int64
}

// NewManifest describes size bytes laid out in blocks of blockSize > 0.
func NewManifest(size uint64, blockSize uint32, mtime int64) *Manifest {
	return &Manifest{Size: size, BlockSize: blockSize, NBlocks: uint32(blocksFor(size, blockSize)), MTime: mtime}
}

// blocksFor is ceil(size / blockSize).
func blocksFor(size uint64, blockSize uint32) uint64 {
	n := size / uint64(blockSize)
	if size%uint64(blockSize) != 0 {
		n++
	}
	return n
}

// Encode serializes the manifest.
func (m *Manifest) Encode() []byte {
	var w binenc.Writer
	w.Uvarint(m.Size)
	w.Uvarint(uint64(m.BlockSize))
	w.Uvarint(uint64(m.NBlocks))
	w.Uvarint(uint64(m.MTime))
	return w.Bytes()
}

// DecodeManifest parses a manifest.
func DecodeManifest(b []byte) (*Manifest, error) {
	r := binenc.NewReader(b)
	var m Manifest
	var err error
	if m.Size, err = r.Uvarint(); err != nil {
		return nil, badEnc(err)
	}
	bs, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.BlockSize = uint32(bs)
	nb, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.NBlocks = uint32(nb)
	mt, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	m.MTime = int64(mt)
	// Readers divide by the block size and index by the block count, and
	// any writer of the file can sign a manifest: the geometry must hold
	// before anyone computes with it.
	if bs == 0 || bs != uint64(m.BlockSize) || nb != uint64(m.NBlocks) || nb != blocksFor(m.Size, m.BlockSize) {
		return nil, badEnc(fmt.Errorf("manifest geometry: size %d, block size %d, %d blocks", m.Size, bs, nb))
	}
	return &m, nil
}

// Superblock bootstraps a mount: it carries the namespace root's inode and
// the keys to decrypt and verify the root's metadata (paper §III-C). One
// sealed copy per authorized principal is stored at the SSP; mounting costs
// exactly one private-key operation.
type Superblock struct {
	FSID        string
	RootInode   types.Inode
	RootVariant string
	RootMEK     sharocrypto.SymKey
	RootMVK     sharocrypto.VerifyKey
}

// Encode serializes the superblock.
func (s *Superblock) Encode() []byte {
	var w binenc.Writer
	w.String(s.FSID)
	w.Uvarint(uint64(s.RootInode))
	w.String(s.RootVariant)
	w.Raw(s.RootMEK[:])
	w.BytesField(s.RootMVK.Marshal())
	return w.Bytes()
}

// DecodeSuperblock parses a superblock.
func DecodeSuperblock(b []byte) (*Superblock, error) {
	r := binenc.NewReader(b)
	var s Superblock
	var err error
	if s.FSID, err = r.String(); err != nil {
		return nil, badEnc(err)
	}
	ino, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	s.RootInode = types.Inode(ino)
	if s.RootVariant, err = r.String(); err != nil {
		return nil, badEnc(err)
	}
	raw, err := r.Raw(sharocrypto.SymKeySize)
	if err != nil {
		return nil, badEnc(err)
	}
	copy(s.RootMEK[:], raw)
	mvkRaw, err := r.BytesField()
	if err != nil {
		return nil, badEnc(err)
	}
	if len(mvkRaw) > 0 {
		if s.RootMVK, err = sharocrypto.VerifyKeyFromBytes(mvkRaw); err != nil {
			return nil, badEnc(err)
		}
	}
	return &s, nil
}

// SplitPointer resolves a split point for one principal: which variant of
// the child's metadata they should follow, and the keys to open it
// (paper §III-D2). It is sealed with the principal's public key.
type SplitPointer struct {
	Inode   types.Inode
	Variant string
	MEK     sharocrypto.SymKey
	MVK     sharocrypto.VerifyKey
}

// Encode serializes the pointer.
func (p *SplitPointer) Encode() []byte {
	var w binenc.Writer
	w.Uvarint(uint64(p.Inode))
	w.String(p.Variant)
	w.Raw(p.MEK[:])
	w.BytesField(p.MVK.Marshal())
	return w.Bytes()
}

// DecodeSplitPointer parses a pointer.
func DecodeSplitPointer(b []byte) (*SplitPointer, error) {
	r := binenc.NewReader(b)
	var p SplitPointer
	ino, err := r.Uvarint()
	if err != nil {
		return nil, badEnc(err)
	}
	p.Inode = types.Inode(ino)
	if p.Variant, err = r.String(); err != nil {
		return nil, badEnc(err)
	}
	raw, err := r.Raw(sharocrypto.SymKeySize)
	if err != nil {
		return nil, badEnc(err)
	}
	copy(p.MEK[:], raw)
	mvkRaw, err := r.BytesField()
	if err != nil {
		return nil, badEnc(err)
	}
	if len(mvkRaw) > 0 {
		if p.MVK, err = sharocrypto.VerifyKeyFromBytes(mvkRaw); err != nil {
			return nil, badEnc(err)
		}
	}
	return &p, nil
}

// AttrEqual reports whether two attribute sets are identical, including
// their ACLs. (Attr contains a slice and is not ==-comparable.)
//
//nolint:gocyclo // field-by-field comparison
func AttrEqual(a, b Attr) bool {
	if a.Inode != b.Inode || a.Kind != b.Kind || a.Owner != b.Owner || a.Group != b.Group ||
		a.Perm != b.Perm || a.Size != b.Size || a.MTime != b.MTime ||
		a.DataGen != b.DataGen || a.Flags != b.Flags || len(a.ACL) != len(b.ACL) {
		return false
	}
	for i := range a.ACL {
		if a.ACL[i] != b.ACL[i] {
			return false
		}
	}
	return true
}
