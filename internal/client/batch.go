package client

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// --- the fetch primitive ----------------------------------------------------

// blobKey names one blob at the SSP.
type blobKey struct {
	ns  wire.NS
	key string
}

// replyIndex matches a fetch reply to the want-list that produced it, by
// (namespace, key): the same inode has blobs in several namespaces, and
// one fetch may carry many objects. It has an entry for every key asked,
// returned or not, so "asked for and absent" and "never asked" differ.
type replyIndex map[blobKey]replyBlob

type replyBlob struct {
	val      []byte
	returned bool
}

// fetch is the one read every operation goes through: a want-list of
// everything the caller can name at this point, one BatchGet, and the
// reply indexed by key for the caller to open. Nothing in the reply is
// verified or cached here; each blob passes its own Open/Verify at the
// place that uses it.
func (s *Session) fetch(want []wire.KV) (replyIndex, error) {
	if sp := s.tracer.Start("client.fetch", obs.ClassNone); sp != nil {
		sp.Annotate("keys", strconv.Itoa(len(want)))
		defer sp.End()
	}
	s.fetches++
	items, err := s.store.BatchGet(want)
	if err != nil {
		return nil, err
	}
	return indexReply(want, items)
}

// blobOf returns the blob at (ns, key): out of pre when that fetch already
// asked for it, otherwise by a fetch of its own. ok is false when the SSP
// has no such blob.
func (s *Session) blobOf(pre replyIndex, ns wire.NS, key string) (val []byte, ok bool, err error) {
	b, asked := pre[blobKey{ns, key}]
	if !asked {
		one, err := s.fetch([]wire.KV{{NS: ns, Key: key}})
		if err != nil {
			return nil, false, err
		}
		b = one[blobKey{ns, key}]
	}
	return b.val, b.returned, nil
}

// list is the server-side listing fallback, counted with the fetches.
func (s *Session) list(ns wire.NS, prefix string) ([]wire.KV, error) {
	s.fetches++
	return s.store.List(ns, prefix)
}

// indexReply indexes the items the SSP returned for the asked keys. Keys
// the SSP omitted stay marked not-returned; an item that was never asked
// for, or that answers the same key twice, is the SSP answering a
// different question than the one put to it, and is refused as tampering
// before any of the reply is used.
func indexReply(asked, items []wire.KV) (replyIndex, error) {
	idx := make(replyIndex, len(asked))
	for _, kv := range asked {
		idx[blobKey{kv.NS, kv.Key}] = replyBlob{}
	}
	for _, it := range items {
		k := blobKey{it.NS, it.Key}
		if b, ok := idx[k]; !ok || b.returned {
			return nil, fmt.Errorf("%w: unrequested or repeated %s blob %q in batch reply", types.ErrTampered, it.NS, it.Key)
		}
		idx[k] = replyBlob{val: it.Val, returned: true}
	}
	return idx, nil
}

// get returns the blob the SSP returned for (ns, key), if it returned one.
func (x replyIndex) get(ns wire.NS, key string) ([]byte, bool) {
	b := x[blobKey{ns, key}]
	return b.val, b.returned
}

// asked reports whether the fetch behind x asked for (ns, key), whether or
// not the SSP returned it.
func (x replyIndex) asked(ns wire.NS, key string) bool {
	_, ok := x[blobKey{ns, key}]
	return ok
}

// plus returns an index answering for everything x or y asked.
func (x replyIndex) plus(y replyIndex) replyIndex {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	sum := make(replyIndex, len(x)+len(y))
	for k, b := range x {
		sum[k] = b
	}
	for k, b := range y {
		sum[k] = b
	}
	return sum
}

// --- sibling-batched getattr ----------------------------------------------

// maxSiblingBatch caps how many siblings ride one getattr fetch: enough
// that a listing of any ordinary directory is one or two round trips,
// small enough that the reply stays a few tens of KiB.
const maxSiblingBatch = 64

// siblingCost is the cache charge assumed per prefetched child (sealed
// metadata, manifest and resolved ref) when sizing a chunk against a
// finite cache budget.
const siblingCost = 1024

// siblingChunk bounds one sibling batch to what the cache can keep: never
// more than half a finite budget, so a prefetch cannot push out the view it
// was read from or itself. A disabled cache prefetches nothing.
func siblingChunk(cacheBytes int64) int {
	if cacheBytes < 0 || cacheBytes/(2*siblingCost) > maxSiblingBatch {
		return maxSiblingBatch
	}
	return int(cacheBytes / (2 * siblingCost))
}

// appendStatKeys adds the blobs getattr wants for one object. The manifest
// key is asked for blind — the kind is only known once the metadata is
// open — and a directory simply has none.
func appendStatKeys(dst []wire.KV, r ref) []wire.KV {
	return append(dst,
		wire.KV{NS: wire.NSMeta, Key: meta.MetaKey(r.ino, r.variant)},
		wire.KV{NS: wire.NSData, Key: meta.ManifestKey(r.ino)})
}

// sibling is one prefetch candidate: a row of the listed parent.
type sibling struct {
	name string
	r    ref
}

// listedSiblings picks the children to fetch along with a getattr miss on
// the row at. It yields nothing unless ReadDir listed the parent and both
// the mark and the full view are still cached — so names-only and
// exec-only views, evicted or invalidated parents and disabled caches all
// fall through to the plain two-blob fetch. Candidates are the rows that
// follow at.name in table order (the order ReadDir returned them), minus
// split points (their keys live behind a public-key-sealed pointer, not in
// the row) and children whose metadata is already cached.
func (s *Session) listedSiblings(at dirent) []sibling {
	if at.name == "" || s.sibChunk == 0 {
		return nil
	}
	tkey := meta.TableKey(at.dir.ino, at.dir.variant)
	if _, ok := s.cache.Get(ckListed + tkey); !ok {
		return nil
	}
	v, ok := s.cache.Get(ckView + tkey)
	if !ok {
		return nil
	}
	full, err := v.(*cap.View).Full()
	if err != nil {
		return nil
	}
	rows := full.Entries
	next := sort.Search(len(rows), func(i int) bool { return rows[i].Name > at.name })
	var sibs []sibling
	for _, e := range rows[next:] {
		if len(sibs) == s.sibChunk {
			break
		}
		if e.Split {
			continue
		}
		if _, ok := s.cache.Get(ckMeta + meta.MetaKey(e.Inode, e.Variant)); ok {
			continue
		}
		sibs = append(sibs, sibling{name: e.Name, r: ref{ino: e.Inode, variant: e.Variant, mek: e.MEK, mvk: e.MVK}})
	}
	return sibs
}

// cacheSiblings opens the prefetched children out of a batch reply and
// caches the ones that verify. Every blob passes exactly the checks a
// getattr of that child would apply — metadata under the MEK/MVK of its
// own row and its own AAD, the manifest under its own DEK/DVK — before
// anything is inserted. A child whose blob is missing or fails is left
// uncached: its own getattr refetches it and reports its own error, so a
// tampered neighbour never fails (or poisons) an honest target. Children
// are independent, so they open across the worker pool under one
// wall-clock CRYPTO stopwatch.
func (s *Session) cacheSiblings(dir ref, sibs []sibling, blobs replyIndex) {
	type opened struct {
		m               *meta.Metadata
		man             *meta.Manifest
		metaLen, manLen int64
		err             error
	}
	out := make([]opened, len(sibs))
	stop := s.crypto("open-siblings")
	layout.RunParallel(len(sibs), func(i int) {
		r, o := sibs[i].r, &out[i]
		metaBlob, ok := blobs.get(wire.NSMeta, meta.MetaKey(r.ino, r.variant))
		if !ok {
			o.err = types.ErrNotExist
			return
		}
		o.metaLen = int64(len(metaBlob))
		o.m, o.err = meta.OpenMetadata(r.mek, r.mvk, meta.MetaAAD(r.ino, r.variant), metaBlob)
		if o.err != nil || !hasManifest(o.m) {
			return
		}
		if manBlob, ok := blobs.get(wire.NSData, meta.ManifestKey(r.ino)); ok {
			o.manLen = int64(len(manBlob))
			o.man, o.err = verifyManifest(r, o.m, manBlob)
		}
	})
	stop()

	var kept, rejected int64
	for i, o := range out {
		if o.err != nil {
			rejected++
			continue
		}
		kept++
		r := sibs[i].r
		s.cache.Put(ckMeta+meta.MetaKey(r.ino, r.variant), o.m, o.metaLen)
		if o.man != nil {
			s.cache.Put(ckManifest+meta.ManifestKey(r.ino), o.man, o.manLen)
		}
		s.cache.Put(refCacheKey(dir, sibs[i].name), r, int64(len(sibs[i].name))+96)
	}
	s.metrics.Counter("client.stat.batch").Inc()
	s.metrics.Counter("client.stat.batch.entries").Add(kept)
	s.metrics.Counter("client.stat.batch.rejected").Add(rejected)
}
