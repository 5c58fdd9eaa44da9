package client

import (
	"errors"
	"fmt"
	"strconv"

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
// previously resolved row costs none.
func (s *Session) walkHop(dir ref, comp string, writer bool) (ref, dirent, replyIndex, error) {
	// A previously resolved hop skips the table lookup entirely. Entries
	// are keyed by parent (inode, variant) and name, and are dropped
	// whenever the parent's table changes (writeParentTables,
	// invalidateObject) — the same machinery that invalidates
	// ckView/ckWTable — so they can never outlive the row they came from.
	rkey := refCacheKey(dir, comp)
	known, resolved := s.cache.Get(rkey)
	with := withView
	switch {
	case writer:
		with = withTables
	case resolved:
		with = alone
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
	// every hop, cached ref or not, so a chmod on an ancestor (which
	// invalidates only its ckMeta entry) takes effect immediately.
	if !s.triplet(m.Attr).CanExec() {
		return ref{}, at, pre, types.ErrPermission
	}
	if resolved {
		return known.(ref), at, pre, nil
	}
	view, err := s.openViewOf(dir, m, pre)
	if err != nil {
		return ref{}, at, pre, err
	}
	at.view = view
	entry, err := view.Lookup(comp)
	if err != nil {
		if errors.Is(err, meta.ErrNoEntry) {
			err = types.ErrNotExist
		}
		return ref{}, at, pre, err
	}
	if entry.Split {
		// Split pointers are re-sealed out of band on revocation with
		// no parent-table write to hook invalidation on, so split
		// hops are deliberately not cached.
		next, err := s.resolveSplit(entry.Inode)
		return next, at, pre, err
	}
	next := ref{ino: entry.Inode, variant: entry.Variant, mek: entry.MEK, mvk: entry.MVK}
	s.cache.Put(rkey, next, int64(len(comp))+96)
	return next, at, pre, nil
}

// dirent names the directory row a resolved object was reached through:
// the parent's (inode, variant), its opened metadata, its table view when
// the walk had to read it, and the entry name. The namespace root has no
// row and gets the zero dirent.
type dirent struct {
	dir  ref
	meta *meta.Metadata
	view *cap.View
	name string
}

// refCacheKey names a resolved directory entry in the session cache:
// parent inode and variant (the view the entry row lives in) plus the
// component name. It runs on every hop of every operation, so it is one
// sized append rather than a format call.
func refCacheKey(parent ref, comp string) string {
	var buf [96]byte
	b := append(buf[:0], ckRef+"d/"...)
	b = strconv.AppendUint(b, uint64(parent.ino), 10)
	b = append(b, '/')
	b = append(b, parent.variant...)
	b = append(b, '|')
	b = append(b, comp...)
	return string(b)
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
			stop := s.crypto("open-table")
			view, err := cap.OpenView(r.variant, cap.TableKey(m, r.variant), m.Keys.DVK, r.ino, blob)
			stop()
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

	// The remaining variants are independent of one another (each is the
	// same directory sealed under a different CAP key), so they decrypt
	// across a worker pool. One wall-clock stopwatch spans the whole
	// parallel region: CRYPTO charges what the caller actually waited,
	// not the sum of overlapping worker time.
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
	if len(jobs) > 0 {
		opened := make([]*meta.DirTable, len(jobs))
		errs := make([]error, len(jobs))
		stop := s.crypto("open-table")
		layout.RunParallel(len(jobs), func(i int) {
			j := jobs[i]
			view, err := cap.OpenView(j.id, cap.TableKey(m, j.id), m.Keys.DVK, r.ino, j.blob)
			if err != nil {
				errs[i] = err
				return
			}
			opened[i], errs[i] = view.Reconstruct(names)
		})
		stop()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i, j := range jobs {
			tables[j.id] = opened[i]
			s.cache.Put(ckWTable+meta.TableKey(r.ino, j.id), opened[i].Clone(), tableSize(opened[i]))
		}
	}
	return tables, nil
}

// tableSize approximates a decoded table's cache footprint.
func tableSize(t *meta.DirTable) int64 {
	return int64(t.Len())*96 + 64
}

// writeParentTables seals every view of the directory from the per-variant
// tables and returns the KVs to store. Reader-view cache entries for the
// directory are invalidated and the writer-table cache is refreshed with
// the new contents (write-through: within a session the client is the
// only writer it is coherent with).
func (s *Session) writeParentTables(r ref, m *meta.Metadata, tables map[string]*meta.DirTable) ([]wire.KV, error) {
	// Seal the per-variant views across the worker pool (the CRYPTO-side
	// twin of loadParentTables' parallel open); kvs keep deterministic
	// variant order. A single wall-clock stopwatch covers the region.
	type sealJob struct {
		id  string
		cid cap.ID
		tbl *meta.DirTable
	}
	var jobs []sealJob
	for _, pv := range s.eng.Variants(m.Attr) {
		tbl, ok := tables[pv.ID]
		if !ok {
			continue
		}
		jobs = append(jobs, sealJob{id: pv.ID, cid: pv.Cap, tbl: tbl})
	}
	sealed := make([][]byte, len(jobs))
	errs := make([]error, len(jobs))
	stop := s.crypto("seal-table")
	layout.RunParallel(len(jobs), func(i int) {
		sealed[i], errs[i] = cap.SealTableView(jobs[i].tbl, m, jobs[i].cid, jobs[i].id)
	})
	stop()
	kvs := make([]wire.KV, 0, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.TableKey(r.ino, j.id), Val: sealed[i]})
	}
	id := strconv.FormatUint(uint64(r.ino), 10) + "/"
	s.cache.DeletePrefix(ckView+"t/"+id, ckRef+"d/"+id, ckListed+"t/"+id)
	for id, tbl := range tables {
		s.cache.Put(ckWTable+meta.TableKey(r.ino, id), tbl.Clone(), tableSize(tbl))
	}
	// The writer's own reader-view is derivable from the table just
	// written; refresh it in place instead of paying a refetch on the
	// next lookup in this directory.
	if own, ok := tables[r.variant]; ok {
		s.cache.Put(ckView+meta.TableKey(r.ino, r.variant), cap.NewFullView(own.Clone()), tableSize(own))
	}
	return kvs, nil
}
