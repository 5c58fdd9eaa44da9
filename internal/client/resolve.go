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
// that fetch with related blobs (Stat combines it with the manifest, and
// with the siblings named by the returned directory row).
func (s *Session) resolveRef(path string) (ref, dirent, error) {
	defer s.tracer.Start("resolve", obs.ClassNone).End()
	comps, err := types.PathComponents(path)
	if err != nil {
		return ref{}, dirent{}, err
	}
	cur, at := s.root, dirent{}
	for _, comp := range comps {
		m, err := s.fetchMeta(cur)
		if err != nil {
			return ref{}, dirent{}, err
		}
		if m.Attr.Kind != types.KindDir {
			return ref{}, dirent{}, types.ErrNotDir
		}
		at = dirent{dir: cur, name: comp}
		// Traversal requires exec on the directory — enforced
		// cryptographically for non-owners (no DEK ⇒ no table), and as
		// policy for owners, like a local filesystem. The check runs on
		// every hop, cached ref or not, so a chmod on an ancestor (which
		// invalidates only its ckMeta entry) takes effect immediately.
		if !s.triplet(m.Attr).CanExec() {
			return ref{}, dirent{}, types.ErrPermission
		}
		// A previously resolved hop skips the table lookup entirely.
		// Entries are keyed by parent (inode, variant) and name, and are
		// dropped whenever the parent's table changes (writeParentTables,
		// invalidateObject) — the same machinery that invalidates
		// ckView/ckWTable — so they can never outlive the row they came
		// from.
		rkey := refCacheKey(cur, comp)
		if v, ok := s.cache.Get(rkey); ok {
			cur = v.(ref)
			continue
		}
		view, err := s.openViewOf(cur, m)
		if err != nil {
			return ref{}, dirent{}, err
		}
		entry, err := view.Lookup(comp)
		if err != nil {
			switch {
			case errors.Is(err, meta.ErrNoEntry):
				return ref{}, dirent{}, types.ErrNotExist
			default:
				return ref{}, dirent{}, err
			}
		}
		if entry.Split {
			// Split pointers are re-sealed out of band on revocation with
			// no parent-table write to hook invalidation on, so split
			// hops are deliberately not cached.
			cur, err = s.resolveSplit(entry.Inode)
			if err != nil {
				return ref{}, dirent{}, err
			}
		} else {
			cur = ref{ino: entry.Inode, variant: entry.Variant, mek: entry.MEK, mvk: entry.MVK}
			s.cache.Put(rkey, cur, int64(len(comp))+96)
		}
	}
	return cur, at, nil
}

// dirent names the directory row a resolved object was reached through:
// the parent's (inode, variant) view and the entry name. The namespace
// root has no row and gets the zero dirent.
type dirent struct {
	dir  ref
	name string
}

// refCacheKey names a resolved directory entry in the session cache:
// parent inode and variant (the view the entry row lives in) plus the
// component name.
func refCacheKey(parent ref, comp string) string {
	return ckRef + "d/" + fmt.Sprintf("%d/%s|%s", uint64(parent.ino), parent.variant, comp)
}

// resolve walks to path and fetches the object's metadata.
func (s *Session) resolve(path string) (ref, *meta.Metadata, error) {
	r, _, err := s.resolveRef(path)
	if err != nil {
		return ref{}, nil, err
	}
	m, err := s.fetchMeta(r)
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
	blob, err := s.store.Get(wire.NSSplit, key)
	if errors.Is(err, wire.ErrNotFound) {
		// No pointer for this user: the object is not shared with them.
		return ref{}, types.ErrPermission
	}
	if err != nil {
		return ref{}, err
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
		return ref{}, nil, "", fmt.Errorf("%w: operation on root", types.ErrInvalidPath)
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

// loadParentTables decrypts every CAP view of a directory's table. Only a
// directory writer can do this: the per-variant table keys derive from the
// DataSeed, and exec-only rows are reassembled using the names from the
// writer's own full view. Misses are fetched in one batched round trip,
// and decoded tables are cached (prefix ckWTable) so a burst of creates in
// the same directory — the Create-and-List workload — pays the fetch once.
func (s *Session) loadParentTables(r ref, m *meta.Metadata) (map[string]*meta.DirTable, error) {
	if m.Keys.DataSeed.IsZero() || m.Keys.DSK.IsZero() {
		return nil, types.ErrPermission
	}
	tables := make(map[string]*meta.DirTable)
	variants := s.eng.Variants(m.Attr)

	var missing []wire.KV
	for _, pv := range variants {
		if v, ok := s.cache.Get(ckWTable + meta.TableKey(r.ino, pv.ID)); ok {
			tables[pv.ID] = v.(*meta.DirTable).Clone()
			continue
		}
		missing = append(missing, wire.KV{NS: wire.NSData, Key: meta.TableKey(r.ino, pv.ID)})
	}
	if len(missing) == 0 {
		return tables, nil
	}

	items, err := s.store.BatchGet(missing)
	if err != nil {
		return nil, err
	}
	blobs, err := indexReply(missing, items)
	if err != nil {
		return nil, err
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
