package cap

import (
	"fmt"
	"sort"

	"github.com/sharoes/sharoes/internal/binenc"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// view kinds on the wire.
const (
	viewFull  = 1 // all four columns (read-exec, read-write-exec)
	viewNames = 2 // name column only (read, read-write)
	viewExec  = 3 // name-keyed encrypted rows (exec-only)
)

// SealTableView produces the sealed view of a directory table for one CAP
// variant: SealTableViews with one view, a group of one.
func SealTableView(table *meta.DirTable, dirFull *meta.Metadata, id ID, variant string) ([]byte, error) {
	blobs, err := SealTableViews(dirFull, []ViewSpec{{Table: table, ID: id, Variant: variant}})
	if err != nil {
		return nil, err
	}
	return blobs[0], nil
}

// ViewSpec is one view a directory update writes: the table it shows and
// the CAP and variant it is sealed for.
type ViewSpec struct {
	Table   *meta.DirTable
	ID      ID
	Variant string
}

// SealTableViews seals the views one directory update writes, in views'
// order. dirFull must be the directory's full metadata (creator/writer
// knowledge: DataSeed and DSK present).
//
//   - read CAPs see only the name column;
//   - read-exec and read-write-exec CAPs see all columns;
//   - the exec-only CAP sees rows encrypted under keys derived from each
//     entry's name (paper §III-A), indexed by a keyed-hash tag;
//   - zero CAPs store the full view sealed under a derived key their
//     holders never receive: opaque today, but ready to serve its rows
//     the moment the owner relaxes the permission (chmod does not need
//     to reconstruct other owners' child keys).
//
// Each view plaintext is sealed with its variant's derived table key, and
// all of them are signed with the directory's DSK once, as one group
// (meta.SealGroup, DESIGN.md §7.19): each view carries its siblings'
// digests and still opens on its own (OpenView).
func SealTableViews(dirFull *meta.Metadata, views []ViewSpec) ([][]byte, error) {
	if dirFull.Keys.DataSeed.IsZero() || dirFull.Keys.DSK.IsZero() {
		return nil, fmt.Errorf("cap: seal table view: %w", ErrNoKeys)
	}
	members := make([]meta.GroupMember, len(views))
	for i, v := range views {
		tkey, aad := TableKey(dirFull, v.Variant), meta.TableAAD(dirFull.Attr.Inode, v.Variant)
		members[i] = meta.GroupMember{Key: tkey, AAD: aad, Plain: viewPlain(dirFull, v, tkey, aad)}
	}
	return meta.SealGroup(dirFull.Keys.DSK, members), nil
}

// viewPlain encodes the shape of v's table that its CAP sees.
func viewPlain(dirFull *meta.Metadata, v ViewSpec, tkey sharocrypto.SymKey, aad []byte) []byte {
	table, id := v.Table, v.ID
	switch {
	case id.Class == DirExecOnly && !id.Owner:
		return encodeExecView(table, tkey)
	case id.Class.CanList() && id.Class.CanTraverse(), id.Owner:
		// Owners keep the full view regardless of their own triplet so
		// that re-permissioning can rebuild every view.
		return encodeFullView(table)
	case id.Class.CanList():
		return encodeNamesView(table, RowsKey(dirFull, v.Variant), aad)
	case id.Class == DirExecOnly:
		return encodeExecView(table, tkey)
	default:
		// Zero CAP: full rows, sealed under a key its holders lack.
		return encodeFullView(table)
	}
}

func encodeFullView(t *meta.DirTable) []byte {
	var w binenc.Writer
	w.Byte(viewFull)
	w.BytesField(t.Encode())
	return w.Bytes()
}

// encodeNamesView writes the name column, then the full rows sealed
// under the variant's rows key (RowsKey). Its readers list names and open
// nothing more; a directory writer derives the key, so the rows survive
// for the permission change that lets the class traverse again
// (DESIGN.md §7.4).
func encodeNamesView(t *meta.DirTable, rowsKey sharocrypto.SymKey, aad []byte) []byte {
	var w binenc.Writer
	w.Byte(viewNames)
	w.Uvarint(uint64(t.Len()))
	for _, name := range t.Names() {
		w.String(name)
	}
	w.BytesField(rowsKey.Seal(t.Encode(), aad))
	return w.Bytes()
}

// encodeExecView encrypts each row under a key derived from its name, and
// indexes rows by a keyed-hash tag of the name. Rows are sorted by tag so
// the encoding leaks no name ordering.
func encodeExecView(t *meta.DirTable, tkey sharocrypto.SymKey) []byte {
	type row struct {
		tag    [32]byte
		sealed []byte
	}
	rows := make([]row, 0, t.Len())
	for i := range t.Entries {
		e := &t.Entries[i]
		rowKey := tkey.Derive("row|" + e.Name)
		var body binenc.Writer
		body.Uvarint(uint64(e.Inode))
		body.String(e.Variant)
		body.Bool(e.Split)
		if !e.Split {
			body.Raw(e.MEK.Marshal())
			body.BytesField(e.MVK.Marshal())
		}
		tag := tkey.NameTag(e.Name)
		rows = append(rows, row{tag: tag, sealed: rowKey.Seal(body.Bytes(), tag[:])})
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].tag {
			if rows[i].tag[k] != rows[j].tag[k] {
				return rows[i].tag[k] < rows[j].tag[k]
			}
		}
		return false
	})
	var w binenc.Writer
	w.Byte(viewExec)
	w.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		w.Raw(r.tag[:])
		w.BytesField(r.sealed)
	}
	return w.Bytes()
}

// View is a decrypted directory-table view. What it exposes depends on the
// CAP it was sealed for.
type View struct {
	tkey  sharocrypto.SymKey
	aad   []byte              // the view's location binding, for its sealed rows
	names []string            // viewNames
	rows  []byte              // viewNames: the full rows, sealed under RowsKey
	full  *meta.DirTable      // viewFull
	exec  map[[32]byte][]byte // viewExec: tag → sealed row
}

// OpenView verifies and decrypts a sealed table view. tkey is the DEKthis
// from the caller's metadata variant; dvk the directory's DVK. The view
// self-describes its shape; which shape the caller can decrypt is
// determined by which derived table key their CAP granted them.
func OpenView(variant string, tkey sharocrypto.SymKey, dvk sharocrypto.VerifyKey, ino types.Inode, blob []byte) (*View, error) {
	aad := meta.TableAAD(ino, variant)
	plain, err := meta.OpenVerified(tkey, dvk, aad, blob)
	if err != nil {
		return nil, err
	}
	r := binenc.NewReader(plain)
	kind, err := r.Byte()
	if err != nil {
		return nil, badView(err)
	}
	v := &View{tkey: tkey, aad: aad}
	switch kind {
	case viewFull:
		raw, err := r.BytesField()
		if err != nil {
			return nil, badView(err)
		}
		if v.full, err = meta.DecodeTable(raw); err != nil {
			return nil, badView(err)
		}
	case viewNames:
		n, err := r.Uvarint()
		if err != nil {
			return nil, badView(err)
		}
		if n > uint64(r.Remaining()) {
			return nil, badView(fmt.Errorf("absurd name count %d", n))
		}
		v.names = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			name, err := r.String()
			if err != nil {
				return nil, badView(err)
			}
			v.names = append(v.names, name)
		}
		rows, err := r.BytesField()
		if err != nil {
			return nil, badView(err)
		}
		v.rows = append([]byte(nil), rows...)
	case viewExec:
		n, err := r.Uvarint()
		if err != nil {
			return nil, badView(err)
		}
		if n > uint64(r.Remaining()) {
			return nil, badView(fmt.Errorf("absurd row count %d", n))
		}
		v.exec = make(map[[32]byte][]byte, n)
		for i := uint64(0); i < n; i++ {
			tagRaw, err := r.Raw(32)
			if err != nil {
				return nil, badView(err)
			}
			var tag [32]byte
			copy(tag[:], tagRaw)
			sealed, err := r.BytesField()
			if err != nil {
				return nil, badView(err)
			}
			v.exec[tag] = append([]byte(nil), sealed...)
		}
	default:
		return nil, badView(fmt.Errorf("unknown view kind %d", kind))
	}
	return v, nil
}

func badView(err error) error { return fmt.Errorf("%w: view: %w", meta.ErrBadEncoding, err) }

// Names lists the entry names — the "ls" operation. It fails with
// ErrNoKeys for exec-only views, whose whole point is hiding names.
func (v *View) Names() ([]string, error) {
	switch {
	case v.full != nil:
		return v.full.Names(), nil
	case v.names != nil:
		return v.names, nil
	default:
		return nil, fmt.Errorf("cap: list names: %w", ErrNoKeys)
	}
}

// Lookup resolves an entry by name — the traversal operation. Name-only
// views cannot traverse (read permission without exec); exec-only views
// derive the row key from the queried name.
func (v *View) Lookup(name string) (*meta.DirEntry, error) {
	switch {
	case v.full != nil:
		return v.full.Lookup(name)
	case v.exec != nil:
		tag := v.tkey.NameTag(name)
		sealed, ok := v.exec[tag]
		if !ok {
			return nil, fmt.Errorf("%w: %q", meta.ErrNoEntry, name)
		}
		rowKey := v.tkey.Derive("row|" + name)
		body, err := rowKey.Open(sealed, tag[:])
		if err != nil {
			return nil, fmt.Errorf("%w: row for %q", types.ErrTampered, name)
		}
		r := binenc.NewReader(body)
		e := meta.DirEntry{Name: name}
		ino, err := r.Uvarint()
		if err != nil {
			return nil, badView(err)
		}
		e.Inode = types.Inode(ino)
		if e.Variant, err = r.String(); err != nil {
			return nil, badView(err)
		}
		if e.Split, err = r.Bool(); err != nil {
			return nil, badView(err)
		}
		if !e.Split {
			raw, err := r.Raw(sharocrypto.SymKeySize)
			if err != nil {
				return nil, badView(err)
			}
			if e.MEK, err = sharocrypto.SymKeyFromBytes(raw); err != nil {
				return nil, badView(err)
			}
			mvkRaw, err := r.BytesField()
			if err != nil {
				return nil, badView(err)
			}
			if len(mvkRaw) > 0 {
				if e.MVK, err = sharocrypto.VerifyKeyFromBytes(mvkRaw); err != nil {
					return nil, badView(err)
				}
			}
		}
		return &e, nil
	default:
		return nil, fmt.Errorf("cap: traverse: %w", ErrNoKeys)
	}
}

// Full returns the underlying table when all columns are visible (writer
// views); ErrNoKeys otherwise.
func (v *View) Full() (*meta.DirTable, error) {
	if v.full == nil {
		return nil, fmt.Errorf("cap: full table: %w", ErrNoKeys)
	}
	return v.full, nil
}

// Len returns the number of entries visible in the view.
func (v *View) Len() int {
	switch {
	case v.full != nil:
		return v.full.Len()
	case v.names != nil:
		return len(v.names)
	default:
		return len(v.exec)
	}
}

// NewFullView wraps an already-known table as a full (writer) view — used
// to refresh a writer's own view cache after it re-encrypts the table,
// without a wasted fetch-and-decrypt round trip. The view takes ownership
// of t.
func NewFullView(t *meta.DirTable) *View { return &View{full: t} }

// EmptyView returns the view of an empty directory table for the given
// CAP, used when a directory legitimately has no stored view yet.
func EmptyView(id ID) *View {
	switch {
	case id.Owner, id.Class.CanList() && id.Class.CanTraverse():
		return &View{full: &meta.DirTable{}}
	case id.Class.CanList():
		return &View{names: []string{}}
	default:
		return &View{exec: map[[32]byte][]byte{}}
	}
}

// Reconstruct rebuilds the logical directory table underlying the view,
// for a directory writer. Full views reconstruct exactly; names-only views
// open their sealed rows under rowsKey (the variant's RowsKey); exec-only
// views are reassembled row by row from the supplied name list, which the
// writer obtains from their own full view.
func (v *View) Reconstruct(names []string, rowsKey sharocrypto.SymKey) (*meta.DirTable, error) {
	switch {
	case v.full != nil:
		return v.full.Clone(), nil
	case v.names != nil:
		raw, err := rowsKey.Open(v.rows, v.aad)
		if err != nil {
			return nil, fmt.Errorf("%w: names view rows", types.ErrTampered)
		}
		t, err := meta.DecodeTable(raw)
		if err != nil {
			return nil, badView(err)
		}
		return t, nil
	default:
		t := &meta.DirTable{}
		for _, name := range names {
			e, err := v.Lookup(name)
			if err != nil {
				// A name the writer knows that is absent from this view
				// indicates view skew; surface it.
				return nil, fmt.Errorf("cap: reconstruct: %q: %w", name, err)
			}
			if err := t.Insert(*e); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
}
