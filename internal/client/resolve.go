package client

import (
	"errors"
	"fmt"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// resolveRef walks an absolute path from the namespace root, obtaining at
// each step the child's MEK/MVK from the parent's directory table (or,
// at a split point, from the user's sealed split pointer) — the in-band
// key distribution that is the heart of Sharoes. It returns the final
// object's reference without fetching its metadata, so callers can batch
// that fetch with related blobs (fetchObject combines it with the
// manifest, and with the siblings named by the returned directory row).
//
// The dirent describes the hop to the final component — its parent's ref,
// opened metadata and (when the hop read it) table view — and is returned
// as far as that hop got even when it fails, so a mutation can check its
// right to write the parent, or create the missing entry, without walking
// the path again. parentWriter says the caller may go on to write that
// parent (Create, Mkdir, Remove, a WriteFile or OpenFile that may create):
// the final hop then asks for the directory's writer tables as well, and
// the reply that carried them is returned for loadParentTables to open
// them out of (nil for any other walk, and when the hop fetched nothing).
func (s *Session) resolveRef(path string, parentWriter bool) (ref, dirent, replyIndex, error) {
	defer s.tracer.Start("resolve", obs.ClassNone).End()
	comps, err := types.PathComponents(path)
	if err != nil {
		return ref{}, dirent{}, nil, err
	}
	cur, at := s.root, dirent{}
	var tables replyIndex
	for i, comp := range comps {
		writer := parentWriter && i == len(comps)-1
		next, hop, pre, err := s.walkHop(cur, comp, writer)
		if i == len(comps)-1 {
			at = hop
		}
		if writer {
			tables = pre
		}
		if err != nil {
			return ref{}, at, tables, err
		}
		cur = next
	}
	return cur, at, tables, nil
}

// walkHop resolves one component: comp's row in directory dir. A cold
// directory costs one round trip — its metadata and its table view are
// fetched together, and for a writer of the directory so are the tables of
// its other fixed variants, asked for blind (the ACL variants' can only be
// named once the metadata is open; loadParentTables fetches those) — and a
// row resolved before costs none: it is remembered in the directory's
// cached view (dirView.refs), so a warm hop is one cache lookup for the
// view, one for the metadata and the exec check.
func (s *Session) walkHop(dir ref, comp string, writer bool) (ref, dirent, replyIndex, error) {
	var known *dirView
	var key [64]byte // a lookup key the cache does not keep: built without allocating
	if v, ok := s.cache.Get(string(meta.AppendTableKey(append(key[:0], ckView...), dir.ino, dir.variant))); ok {
		known = v.(*dirView)
	}
	with := withView
	if writer {
		with = withTables
	}
	m, pre, err := s.fetchMeta(dir, with)
	if err != nil {
		return ref{}, dirent{}, nil, err
	}
	if m.Attr.Kind != types.KindDir {
		return ref{}, dirent{}, nil, types.ErrNotDir
	}
	at := dirent{dir: dir, meta: m, name: comp}
	// Traversal requires exec on the directory — enforced
	// cryptographically for non-owners (no DEK ⇒ no table), and as
	// policy for owners, like a local filesystem. The check runs on
	// every hop, remembered row or not, so a chmod on an ancestor (which
	// re-seals only its metadata) takes effect immediately.
	if !s.triplet(m.Attr).CanExec() {
		return ref{}, at, pre, types.ErrPermission
	}
	if known != nil {
		if next, ok := known.refs[comp]; ok {
			at.view = known.View
			return next, at, pre, nil
		}
	}
	if pre == nil && writer {
		// The metadata was cached and the view was not — a directory
		// the session made itself: the view and the writer tables come
		// in one round trip, as they would with the metadata.
		if pre, err = s.fetchViewAndTables(dir, m); err != nil {
			return ref{}, at, nil, err
		}
	}
	dv, err := s.openViewOf(dir, m, pre)
	if err != nil {
		return ref{}, at, pre, err
	}
	at.view = dv.View
	entry, err := dv.Lookup(comp)
	if err != nil {
		if errors.Is(err, meta.ErrNoEntry) {
			err = types.ErrNotExist
		}
		return ref{}, at, pre, err
	}
	if entry.Split {
		// Split pointers are re-sealed out of band on revocation with
		// no parent-table write to drop them with, so split hops are
		// deliberately not remembered.
		next, err := s.resolveSplit(entry.Inode)
		return next, at, pre, err
	}
	next := ref{ino: entry.Inode, variant: entry.Variant, mek: entry.MEK, mvk: entry.MVK}
	s.remember(dv, comp, next)
	return next, at, pre, nil
}

// dirent names the directory row a resolved object was reached through:
// the parent's (inode, variant), its opened metadata, its table view and
// the entry name. The namespace root has no row and gets the zero dirent.
type dirent struct {
	dir  ref
	meta *meta.Metadata
	view *cap.View
	name string
}

// resolve walks to path and fetches the object's metadata.
func (s *Session) resolve(path string) (ref, *meta.Metadata, error) {
	r, _, _, err := s.resolveRef(path, false)
	if err != nil {
		return ref{}, nil, err
	}
	m, _, err := s.fetchMeta(r, alone)
	if err != nil {
		return ref{}, nil, err
	}
	return r, m, nil
}

// resolveSplit follows the user's public-key-sealed pointer at a split
// point (paper §III-D2) — the rare place where the ordinary access path
// needs a private-key operation.
func (s *Session) resolveSplit(ino types.Inode) (ref, error) {
	key := meta.SplitKey(ino, keys.UserPrincipal(s.user.ID).String())
	blob, ok, err := s.blobOf(nil, wire.NSSplit, key)
	if err != nil {
		return ref{}, err
	}
	if !ok {
		// No pointer for this user: the object is not shared with them.
		return ref{}, types.ErrPermission
	}
	stop := s.crypto("open-split")
	ptr, err := meta.OpenSplitPointer(s.user.Priv, blob)
	stop()
	if err != nil {
		return ref{}, err
	}
	if ptr.Inode != ino {
		return ref{}, fmt.Errorf("%w: split pointer inode mismatch", types.ErrTampered)
	}
	return ref{ino: ptr.Inode, variant: ptr.Variant, mek: ptr.MEK, mvk: ptr.MVK}, nil
}

// resolveParent resolves the parent directory of path and returns the
// base name.
func (s *Session) resolveParent(path string) (ref, *meta.Metadata, string, error) {
	dir, base, err := types.SplitPath(path)
	if err != nil {
		return ref{}, nil, "", err
	}
	if base == "" {
		return ref{}, nil, "", errOnRoot
	}
	r, m, err := s.resolve(dir)
	if err != nil {
		return ref{}, nil, "", err
	}
	if m.Attr.Kind != types.KindDir {
		return ref{}, nil, "", types.ErrNotDir
	}
	return r, m, base, nil
}

// errOnRoot refuses an operation that needs a parent directory.
var errOnRoot = fmt.Errorf("%w: operation on root", types.ErrInvalidPath)

// requireDirWriter checks that the session user may modify the directory:
// write+exec policy bits plus the cryptographic write capability
// (DataSeed and DSK present in their variant).
func (s *Session) requireDirWriter(m *meta.Metadata) error {
	t := s.triplet(m.Attr)
	if !t.CanWrite() || !t.CanExec() {
		return types.ErrPermission
	}
	if m.Keys.DataSeed.IsZero() || m.Keys.DSK.IsZero() {
		return types.ErrPermission
	}
	return nil
}

// fetchViewAndTables fetches, in one round trip, whatever of directory
// r's view and — when m opens them — writer tables is not cached. It
// fetches nothing, and returns nil, when the view is cached or m opens no
// table.
func (s *Session) fetchViewAndTables(r ref, m *meta.Metadata) (replyIndex, error) {
	key := meta.TableKey(r.ino, r.variant)
	if m.Keys.DEK.IsZero() || s.cached(ckView+key) {
		return nil, nil
	}
	want := []wire.KV{{NS: wire.NSData, Key: key}}
	if !m.Keys.DataSeed.IsZero() && !m.Keys.DSK.IsZero() {
		for _, kv := range s.missingTables(r, m, nil, nil) {
			if kv.Key != key {
				want = append(want, kv)
			}
		}
	}
	return s.fetch(want)
}

// missingTables lists the writer tables of directory r that
// loadParentTables would have to fetch: every variant's that is neither
// cached, nor the caller's own view as its walk opened it (own), nor
// already answered by pre.
func (s *Session) missingTables(r ref, m *meta.Metadata, own *cap.View, pre replyIndex) []wire.KV {
	var missing []wire.KV
	for _, pv := range s.eng.Variants(m.Attr) {
		key := meta.TableKey(r.ino, pv.ID)
		if (pv.ID == r.variant && own != nil) || pre.asked(wire.NSData, key) || s.cached(ckWTable+key) {
			continue
		}
		missing = append(missing, wire.KV{NS: wire.NSData, Key: key})
	}
	return missing
}

// loadParentTables decrypts every CAP view of a directory's table. Only a
// directory writer can do this: the per-variant table keys derive from the
// DataSeed, and exec-only rows are reassembled using the names from the
// writer's own full view. Decoded tables are cached (prefix ckWTable) so a
// burst of creates in the same directory — the Create-and-List workload —
// pays the fetch once. own is the caller's view of the directory when the
// walk that led here already fetched and opened it (nil otherwise): the
// writer's own table is that same blob, so it is not asked for again. pre
// is whatever earlier replies of the operation answer for — the tables
// that rode the walk's final hop or the fetch of the object being removed;
// what neither the cache nor own nor pre has is fetched here, in one round
// trip, and every table is opened here whichever way it came.
func (s *Session) loadParentTables(r ref, m *meta.Metadata, own *cap.View, pre replyIndex) (map[string]*meta.DirTable, error) {
	if m.Keys.DataSeed.IsZero() || m.Keys.DSK.IsZero() {
		return nil, types.ErrPermission
	}
	tables := make(map[string]*meta.DirTable)
	variants := s.eng.Variants(m.Attr)

	for _, pv := range variants {
		if v, ok := s.cache.Get(ckWTable + meta.TableKey(r.ino, pv.ID)); ok {
			tables[pv.ID] = v.(*meta.DirTable).Clone()
			continue
		}
		if pv.ID == r.variant && own != nil {
			full, err := own.Full()
			if err != nil {
				return nil, types.ErrPermission
			}
			tables[r.variant] = full.Clone()
			s.cache.Put(ckWTable+meta.TableKey(r.ino, r.variant), full.Clone(), tableSize(full))
		}
	}
	if len(tables) == len(variants) {
		return tables, nil
	}
	blobs := pre
	if missing := s.missingTables(r, m, own, pre); len(missing) > 0 {
		fetched, err := s.fetch(missing)
		if err != nil {
			return nil, err
		}
		blobs = pre.plus(fetched)
	}

	// Decode the writer's own (full) view first: exec-only views are
	// reassembled from its name list.
	if _, ok := tables[r.variant]; !ok {
		blob, ok := blobs.get(wire.NSData, meta.TableKey(r.ino, r.variant))
		if !ok {
			tables[r.variant] = &meta.DirTable{}
		} else {
			view, err := s.eng.OpenView(s.clock("open-table"), r.variant, cap.TableKey(m, r.variant), m.Keys.DVK, r.ino, blob)
			if err != nil {
				return nil, err
			}
			full, err := view.Full()
			if err != nil {
				return nil, types.ErrPermission
			}
			tables[r.variant] = full.Clone()
		}
		s.cache.Put(ckWTable+meta.TableKey(r.ino, r.variant), tables[r.variant].Clone(), tableSize(tables[r.variant]))
	}
	names := tables[r.variant].Names()

	// The remaining views were sealed as one group with the writer's own
	// (Sealer.SealViews), so after the first open of a signed group each
	// is a verified-memo hit: they open in turn, under one stopwatch, and
	// are cached only once every one has opened.
	type openJob struct {
		id   string
		blob []byte
	}
	var jobs []openJob
	for _, pv := range variants {
		if _, ok := tables[pv.ID]; ok {
			continue
		}
		blob, ok := blobs.get(wire.NSData, meta.TableKey(r.ino, pv.ID))
		if !ok {
			tables[pv.ID] = &meta.DirTable{}
			continue
		}
		jobs = append(jobs, openJob{id: pv.ID, blob: blob})
	}
	if len(jobs) == 0 {
		return tables, nil
	}
	sw, end := s.cryptoGroup("open-table")
	for _, j := range jobs {
		view, err := s.eng.OpenView(sw, j.id, cap.TableKey(m, j.id), m.Keys.DVK, r.ino, j.blob)
		if err == nil {
			tables[j.id], err = view.Reconstruct(names, cap.RowsKey(m, j.id))
		}
		if err != nil {
			end()
			return nil, err
		}
	}
	end()
	for _, j := range jobs {
		s.cache.Put(ckWTable+meta.TableKey(r.ino, j.id), tables[j.id].Clone(), tableSize(tables[j.id]))
	}
	return tables, nil
}

// tableSize approximates a decoded table's cache footprint.
func tableSize(t *meta.DirTable) int64 {
	return int64(t.Len())*96 + 64
}

// writeParentTables seals every view of the directory from the per-variant
// tables, as one group (layout.SealTables), adds them to w, and
// stages the tables as the writer-table cache entries and the writer's own
// full view as its reader view: within a session the client is the only
// writer it is coherent with, so the next lookup or mutation in this
// directory pays no refetch once the store has taken the batch.
func (s *Session) writeParentTables(w *write, r ref, m *meta.Metadata, tables map[string]*meta.DirTable) error {
	kvs, err := layout.SealTables(s.eng, s.clock("seal-table"), m, tables)
	if err != nil {
		return err
	}
	w.add(kvs...)
	for id, tbl := range tables {
		w.stage(ckWTable+meta.TableKey(r.ino, id), tbl.Clone(), tableSize(tbl))
	}
	if own, ok := tables[r.variant]; ok {
		dv := &dirView{View: cap.NewFullView(own.Clone()), key: ckView + meta.TableKey(r.ino, r.variant), size: tableSize(own)}
		w.stage(dv.key, dv, dv.size)
	}
	return nil
}
