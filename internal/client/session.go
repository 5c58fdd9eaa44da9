// Package client implements the Sharoes filesystem: the component
// installed at every enterprise client that provides *nix-like access to
// SSP-stored data, performing all cryptographic operations locally
// (paper §IV-A).
//
// A Session is one user's mount. Mounting fetches the user's sealed
// superblock (and, in-band, their group keys), decrypts it with the one
// private key the user manages, and from there every key needed to walk
// the tree is obtained from the structures themselves: directory tables
// carry the MEK/MVK of children, metadata carries the DEK/DSK/DVK of data.
//
// The session caches what it opens and what it seals (internal/cache).
// The cache keeps what saves the most round trips per byte, so every
// insert — a cache.Put on the read side, a write.stage on the write side
// — charges the size of what it holds:
//   - a metadata copy: the bytes of its blob that hold it
//     (layout.Sealer.CopyLen);
//   - a manifest: the length of its sealed blob;
//   - a data block: its plaintext length;
//   - a writer table: tableSize;
//   - a view: its blob length, or tableSize when the writer staged it,
//     plus, for each row the session remembers in it, the row's name
//     length and refCost.
package client

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/cache"
	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// DefaultBlockSize is the default data block size. The paper divides
// larger files into blocks encrypted separately so updates avoid
// re-encrypting whole files (§II-B).
const DefaultBlockSize = 64 * 1024

// Config configures a mount.
type Config struct {
	// Store is the SSP connection (ssp.Client) or a local store in tests.
	Store ssp.BlobStore
	// User is the mounting principal with their private key.
	User *keys.User
	// Registry is the enterprise principal directory.
	Registry *keys.Registry
	// Layout is the metadata layout scheme (Scheme-1 or Scheme-2), or one
	// of the comparison baselines' sealing modes (internal/baseline): it
	// decides which copies of an object exist and how each is sealed.
	Layout layout.Engine
	// FSID names the filesystem at the SSP.
	FSID string
	// Recorder receives cost instrumentation; may be nil.
	Recorder *stats.Recorder
	// Tracer receives hierarchical spans for every operation: a
	// "client.<op>" root with resolve, CAP-unwrap, RPC and crypto
	// children (see docs/OBSERVABILITY.md). May be nil. For RPC spans to
	// nest inside the op, and the SSP to join the trace over the wire,
	// whoever dials the ssp.Client passes it the same tracer (Observe).
	Tracer *obs.Tracer
	// Metrics receives per-operation counters (client.op.<op>, and
	// client.op.<op>.fetches for the store reads made under it) and
	// latency histograms (client.op.<op>.ns). May be nil.
	Metrics *obs.Registry
	// CacheBytes is the local cache budget: <0 unlimited, 0 disabled.
	CacheBytes int64
	// BlockSize overrides DefaultBlockSize when nonzero.
	BlockSize uint32
	// LazyRevocation defers *file* re-encryption on permission
	// revocation until the owner's next write, instead of re-encrypting
	// during chmod (paper §IV-A1; the prototype default is immediate, as
	// here). Directory revocations are always immediate — directories
	// have no owner-write event to defer to.
	LazyRevocation bool
}

// ref locates one sealed metadata variant and the keys to open it: the
// content of a directory-table row, split pointer or superblock.
type ref struct {
	ino     types.Inode
	variant string
	mek     sharocrypto.SymKey
	mvk     sharocrypto.VerifyKey
}

// Session is a mounted Sharoes filesystem for one user. It implements
// vfs.FS. Operations are serialized; use one Session per goroutine.
type Session struct {
	mu        sync.Mutex
	store     ssp.BlobStore
	user      *keys.User
	reg       *keys.Registry
	eng       layout.Engine
	fsid      string
	rec       *stats.Recorder
	tracer    *obs.Tracer
	metrics   *obs.Registry
	ops       map[string]*opObs // by op name, resolved on first use (beginOp)
	cache     *cache.Cache
	blockSize uint32
	lazy      bool
	sibChunk  int   // most siblings one getattr miss may prefetch (see siblingChunk)
	fetches   int64 // store read calls made so far (see fetch); beginOp reports the op's share
	groupKeys map[types.GroupID]sharocrypto.PrivateKey
	root      ref
	closed    bool

	// The pipelined commit point (commit). sender is the store when it
	// can send a batch without waiting for the reply, window the most
	// batches in flight (maxInFlight), inflight the batches sent and not
	// yet landed, in send order, and failed the failures landed since the
	// last reap.
	sender   ssp.Sender
	window   int
	inflight []*batch
	failed   error
}

var _ vfs.FS = (*Session)(nil)

// Mount opens a session: it fetches and decrypts the user's superblock —
// the single public-key operation on the mount path (paper §III-C) — and
// the user's group key blocks.
func Mount(cfg Config) (*Session, error) {
	if cfg.Store == nil || cfg.User == nil || cfg.Registry == nil || cfg.Layout == nil {
		return nil, errors.New("client: incomplete config")
	}
	bs := cfg.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	s := &Session{
		store:     cfg.Store,
		user:      cfg.User,
		reg:       cfg.Registry,
		eng:       cfg.Layout,
		fsid:      cfg.FSID,
		rec:       cfg.Recorder,
		tracer:    cfg.Tracer,
		metrics:   cfg.Metrics,
		ops:       make(map[string]*opObs),
		cache:     cache.New(cfg.CacheBytes),
		blockSize: bs,
		lazy:      cfg.LazyRevocation,
		sibChunk:  siblingChunk(cfg.CacheBytes),
		window:    maxInFlight,
	}
	s.sender, _ = cfg.Store.(ssp.Sender)

	// In-band group key distribution (paper §II-A).
	gk, err := keys.FetchGroupKeys(cfg.Store, cfg.Registry, cfg.User)
	if err != nil {
		return nil, fmt.Errorf("client: mount: %w", err)
	}
	s.groupKeys = gk

	// Superblock: try the user principal, then each group principal.
	principals := []keys.Principal{keys.UserPrincipal(cfg.User.ID)}
	for gid := range gk {
		principals = append(principals, keys.GroupPrincipal(gid))
	}
	var sb *meta.Superblock
	for _, p := range principals {
		blob, err := layout.Get(cfg.Store, wire.NSSuper, meta.SuperKey(cfg.FSID, p.String()))
		if errors.Is(err, wire.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("client: mount: %w", err)
		}
		priv := cfg.User.Priv
		if p.Group != "" {
			priv = gk[p.Group]
		}
		sb, err = layout.OpenSuperblock(s.eng, s.clock("open-superblock"), priv, blob)
		if err != nil {
			return nil, fmt.Errorf("client: mount superblock: %w", err)
		}
		break
	}
	if sb == nil {
		return nil, &types.PathError{Op: "mount", Path: "/", Err: types.ErrPermission}
	}
	s.root = ref{ino: sb.RootInode, variant: sb.RootVariant, mek: sb.RootMEK, mvk: sb.RootMVK}
	return s, nil
}

// Close releases the session once every batch in flight is answered,
// and returns the write failures not yet reported. The underlying store
// is closed if the session's config provided an io.Closer (e.g. an
// ssp.Client connection).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.drain(nil)
	err := s.reap()
	s.closed = true
	s.cache.Clear()
	if c, ok := s.store.(io.Closer); ok {
		err = errors.Join(err, c.Close())
	}
	return err
}

// Refresh waits for every batch in flight, then drops all locally cached
// (decrypted) state, forcing the next operations to re-fetch from the
// SSP; a write failure it waits for is reported by the next operation.
// Sharoes, like the paper's prototype, provides no cross-client cache
// coherence protocol — the
// paper defers consistency semantics to a SUNDR-style integration (§VI) —
// so a client that must observe another client's recent writes calls
// Refresh (close-to-open consistency done by hand).
func (s *Session) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain(nil)
	s.cache.Clear()
}

// CacheStats exposes cache hit/miss counts for experiments.
func (s *Session) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// User returns the mounted user's ID.
func (s *Session) User() types.UserID { return s.user.ID }

// crypto returns a stopwatch charging the CRYPTO component and, with a
// tracer attached, recording a "crypto.<name>" leaf span. The name is a
// fixed operation label — never key material or user data (a key
// prints redacted, and boundary confines its raw bytes).
func (s *Session) crypto(name string) func() {
	sp := s.tracer.Start("crypto."+name, obs.ClassCrypto)
	stop := s.rec.Time(obs.ClassCrypto)
	return func() {
		stop()
		sp.End()
	}
}

// clock is the stopwatch of one CRYPTO section named name, for a seal or
// open of the session's Sealer to start if it does any cryptography.
func (s *Session) clock(name string) layout.Stopwatch {
	return func() func() { return s.crypto(name) }
}

// cryptoGroup is one CRYPTO section named name around a group of seals or
// opens that may run on several goroutines (layout.RunParallel): the first
// of them to start the returned stopwatch opens the section, the rest join
// it, and end — called once the group is done — closes it, if anything
// opened it.
func (s *Session) cryptoGroup(name string) (sw layout.Stopwatch, end func()) {
	var once sync.Once
	var stop func()
	sw = func() func() {
		once.Do(func() { stop = s.crypto(name) })
		return func() {}
	}
	return sw, func() {
		if stop != nil {
			stop()
		}
	}
}

// beginOp opens the root span and stopwatch for one vfs operation and
// reaps the batches answered since the last one (reap): err is the write
// failure the operation reports instead of running. end closes the span,
// observes the op's latency histogram and counts the op on the recorder.
// Usage:
//
//	end, err := s.beginOp("stat")
//	defer end()
//	if err != nil { ... }
func (s *Session) beginOp(op string) (end func(), err error) {
	m := s.ops[op]
	if m == nil {
		m = &opObs{span: "client." + op, count: s.metrics.Counter("client.op." + op),
			fetches: s.metrics.Counter("client.op." + op + ".fetches"),
			ns:      s.metrics.Histogram("client.op." + op + ".ns")}
		s.ops[op] = m
	}
	sp := s.tracer.Start(m.span, obs.ClassNone)
	start, fetched := time.Now(), s.fetches
	return func() {
		sp.End()
		m.count.Inc()
		m.fetches.Add(s.fetches - fetched)
		m.ns.Observe(time.Since(start))
		s.rec.AddOp()
	}, s.reap()
}

// opObs is one operation's instrumentation: its span name, counters and
// latency histogram (all handles nil without Config.Metrics).
type opObs struct {
	span           string
	count, fetches *obs.Counter
	ns             *obs.Histogram
}

// triplet returns the permission triplet applying to the session user:
// owner bits, then any ACL grant, then group, then other.
func (s *Session) triplet(attr meta.Attr) types.Triplet {
	return attr.EffectiveTriplet(s.user.ID, s.reg.IsMember)
}

// --- fetch/cache layer -------------------------------------------------

const (
	ckMeta     = "M|"
	ckView     = "V|" // reader-side decoded views
	ckWTable   = "W|" // writer-side decoded per-variant tables
	ckManifest = "F|"
	ckBlock    = "B|"
)

// companion names what a metadata miss asks for in the same round trip:
// blobs whose keys derive from the ref alone, so that they can be named
// before the metadata is open and are asked for blind (a directory has no
// manifest, a file no table, a file of whole blocks no tail; the SSP
// simply omits what it does not have).
type companion uint8

const (
	alone        companion = iota
	withView               // the directory's table view, for a lookup or a listing
	withTables             // the view and the directory's other fixed variants' tables, for a writer of the directory
	withManifest           // the file's manifest, for getattr, overwrite and unlink
	withContent            // the manifest and the tail block, for reads and appends
)

// fetchMeta retrieves and opens one metadata variant, via the cache. On a
// miss the reply that carried it is returned too: it also answers for the
// companions, which the caller opens out of it (openViewOf, fetchManifest,
// readBlocks, loadParentTables) instead of paying a round trip of its own.
func (s *Session) fetchMeta(r ref, with companion) (*meta.Metadata, replyIndex, error) {
	if m, ok := s.cachedMeta(r); ok {
		return m, nil, nil
	}
	return s.fetchMetaMiss(r, with, dirent{}, nil)
}

// metaCopy is a metadata copy as the session caches it: under ckMeta and
// the storage key of its blob, which other copies of the object may
// share (layout.Sealer.MetaKey), together with the variant it was opened
// as. A write that names the blob's key drops it, whatever the variant.
type metaCopy struct {
	variant string
	m       *meta.Metadata
}

// metaKey is the storage key of the blob holding r's metadata copy.
func (s *Session) metaKey(r ref) string { return s.eng.MetaKey(r.ino, r.variant) }

// cachedMeta returns r's metadata copy if the session has it cached: a
// copy of another variant cached under the same key is a miss.
func (s *Session) cachedMeta(r ref) (*meta.Metadata, bool) {
	v, ok := s.cache.Get(ckMeta + s.metaKey(r))
	if !ok || v.(metaCopy).variant != r.variant {
		return nil, false
	}
	return v.(metaCopy).m, true
}

// fetchMetaMiss is the one round trip of a metadata miss: the metadata,
// its companions unless already cached, whatever else the caller can name
// and will open out of the reply itself (ride) and, for a getattr miss
// inside a directory ReadDir has listed (at names the row), the siblings
// that follow it — verified and cached before the target, so the object
// actually asked for ends up the most recently used entry when a finite
// cache has to evict.
func (s *Session) fetchMetaMiss(r ref, with companion, at dirent, ride []wire.KV) (*meta.Metadata, replyIndex, error) {
	metaKey := s.metaKey(r)
	want := append(make([]wire.KV, 0, 3+len(ride)), wire.KV{NS: wire.NSMeta, Key: metaKey})
	unlessCached := func(prefix, key string) {
		if !s.cached(prefix + key) {
			want = append(want, wire.KV{NS: wire.NSData, Key: key})
		}
	}
	switch with {
	case withView:
		unlessCached(ckView, meta.TableKey(r.ino, r.variant))
	case withTables:
		unlessCached(ckView, meta.TableKey(r.ino, r.variant))
		for _, id := range s.eng.FixedVariants() {
			if id != r.variant {
				unlessCached(ckWTable, meta.TableKey(r.ino, id))
			}
		}
	case withManifest:
		unlessCached(ckManifest, meta.ManifestKey(r.ino))
	case withContent:
		unlessCached(ckManifest, meta.ManifestKey(r.ino))
		unlessCached(ckBlock, meta.TailKey(r.ino))
	}
	want = append(want, ride...)
	dv, sibs := s.listedSiblings(at)
	var batch *obs.Span
	if len(sibs) > 0 {
		batch = s.tracer.Start("client.stat.batch", obs.ClassNone)
		for _, sib := range sibs {
			want = s.appendStatKeys(want, sib.r)
		}
	}
	pre, err := s.fetch(want)
	if err == nil && len(sibs) > 0 {
		s.cacheSiblings(dv, sibs, pre)
	}
	batch.End()
	if err != nil {
		return nil, nil, err
	}
	blob, ok := pre.get(wire.NSMeta, metaKey)
	if !ok {
		return nil, nil, types.ErrNotExist
	}
	m, size, err := s.openMeta(s.clock("open-meta"), r, blob)
	if err != nil {
		return nil, nil, err
	}
	s.cache.Put(ckMeta+metaKey, metaCopy{r.variant, m}, int64(size))
	return m, pre, nil
}

// openMeta opens the metadata blob fetched for r, and returns with the
// copy its cache charge: the bytes of the blob that held it.
func (s *Session) openMeta(sw layout.Stopwatch, r ref, blob layout.Sealed) (*meta.Metadata, int, error) {
	return layout.OpenMeta(s.eng, sw, s.user, r.ino, r.variant, r.mek, r.mvk, blob)
}

// cached reports whether key is in the session cache.
func (s *Session) cached(key string) bool {
	_, ok := s.cache.Get(key)
	return ok
}

// dirView is a directory's table view as the session caches it (under
// ckView), together with what the session has learned from it since: the
// rows its walks resolved (name → ref) and whether ReadDir listed it. Both
// live and die with the view — a write that names the table key drops the
// whole entry — so neither can outlive the rows it came from.
type dirView struct {
	*cap.View
	key    string // the cache key
	size   int64  // the cache charge: the view plus one refCost per remembered row
	refs   map[string]ref
	listed bool
}

// refCost is the cache charge of one remembered row beyond its name.
const refCost = 96

// remember records that name resolved to r in dv and charges it to dv's
// cache entry.
func (s *Session) remember(dv *dirView, name string, r ref) {
	if dv.refs == nil {
		dv.refs = make(map[string]ref)
	}
	dv.refs[name] = r
	dv.size += int64(len(name)) + refCost
	s.cache.Put(dv.key, dv, dv.size)
}

// openViewOf retrieves and opens the directory-table view belonging to
// the metadata variant the caller holds, from the cache, from pre (the
// reply that carried the metadata) or by a fetch of its own. A missing
// view is treated as an empty directory (fresh directories store views
// eagerly, so in an untampered store this only happens for variants that
// legitimately have no view) and is not cached.
func (s *Session) openViewOf(r ref, m *meta.Metadata, pre replyIndex) (*dirView, error) {
	if m.Keys.DEK.IsZero() {
		return nil, types.ErrPermission
	}
	key := meta.TableKey(r.ino, r.variant)
	if v, ok := s.cache.Get(ckView + key); ok {
		return v.(*dirView), nil
	}
	blob, ok, err := s.blobOf(pre, wire.NSData, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		shape, serr := s.variantCap(m.Attr, r.variant)
		if serr != nil {
			return nil, serr
		}
		return &dirView{View: cap.EmptyView(shape)}, nil
	}
	v, err := layout.OpenView(s.eng, s.clock("open-view"), r.variant, m.Keys.DEK, m.Keys.DVK, r.ino, blob)
	if err != nil {
		return nil, err
	}
	dv := &dirView{View: v, key: ckView + key, size: int64(blob.Len())}
	s.cache.Put(dv.key, dv, dv.size)
	return dv, nil
}

// variantCap resolves the CAP a variant of an object encodes.
func (s *Session) variantCap(attr meta.Attr, variant string) (cap.ID, error) {
	for _, v := range s.eng.Variants(attr) {
		if v.ID == variant {
			return v.Cap, nil
		}
	}
	return cap.ID{}, fmt.Errorf("client: unknown variant %q", variant)
}

// --- the commit point -----------------------------------------------------

// write is one client write as an operation builds it: the batch for the
// store, and the decoded objects the session caches once the batch is
// sent — objects the write produced itself, never ones read back from the
// SSP. It is passed to commit; nothing of it lives in the Session.
type write struct {
	kvs    []wire.KV
	staged []staged
}

// staged is one object a write caches: its cache key (namespace prefix
// plus storage key), value and charge.
type staged struct {
	key  string
	val  any
	size int64
}

func (w *write) add(kvs ...wire.KV) { w.kvs = append(w.kvs, kvs...) }

func (w *write) stage(key string, val any, size int64) {
	w.staged = append(w.staged, staged{key: key, val: val, size: size})
}

// cacheNamespaces lists, per store namespace, the cache namespaces whose
// keys are that namespace's storage keys behind a prefix.
var cacheNamespaces = map[wire.NS][]string{
	wire.NSMeta: {ckMeta},
	wire.NSData: {ckView, ckWTable, ckManifest, ckBlock},
}

// maxInFlight is how many batches a session over an ssp.Sender may have
// sent and not yet seen answered (DESIGN.md §7.20).
const maxInFlight = 8

// batch is one committed write on its way to the store: sent, and not yet
// taken out of flight by land.
type batch struct {
	kvs   []wire.KV
	reply <-chan error
	keys  map[blobKey]struct{} // the keys kvs names, built on first ask
}

// names reports whether the batch names (ns, key).
func (b *batch) names(ns wire.NS, key string) bool {
	if b.keys == nil {
		b.keys = make(map[blobKey]struct{}, len(b.kvs))
		for _, kv := range b.kvs {
			b.keys[blobKey{kv.NS, kv.Key}] = struct{}{}
		}
	}
	_, ok := b.keys[blobKey{ns, key}]
	return ok
}

// commit is the one place a client write reaches the store and the one
// place it changes the cache. The batch waits first for every batch in
// flight that names one of its keys — the SSP applies one connection's
// requests in any order — and for room among the window's batches in
// flight. Then the cache forgets every entry at every storage key the
// batch names, the batch is sent, and the staged objects are cached. A
// cache key is a namespace prefix plus a storage key, so forgetting costs
// one delete per (key, namespace) and never a scan.
//
// A reply in hand once the batch is sent — any store's but a Sender's,
// and an ssp.Client's over a link faster than its pipelining threshold —
// lands at once, and commit returns its error. Otherwise commit returns
// once the batch is sent, and its reply is taken later (reap, drain),
// unless wait is set: then it waits for the reply. wait also waits for
// every earlier batch first, so the write is the last to land: setAttr's
// revocations take effect before it returns. A batch that fails makes the
// cache forget its keys and those of every batch sent after it (land);
// a write that finds a failure while it waits is not sent, and returns
// that failure.
func (s *Session) commit(w *write, wait bool) error {
	if wait {
		s.drain(nil)
	} else {
		s.drainNaming(w.kvs)
	}
	for len(s.inflight) >= s.window {
		s.failed = errors.Join(s.failed, s.await(s.inflight[0]))
	}
	if s.failed != nil {
		// The write was built on what the session had cached, which a
		// failed batch may have staged: it is not sent.
		return s.reap()
	}
	s.forget(w.kvs)
	b := &batch{kvs: w.kvs}
	if s.sender != nil {
		b.reply = s.sender.SendBatch(w.kvs)
	} else {
		done := make(chan error, 1)
		done <- s.store.BatchPut(w.kvs)
		b.reply = done
	}
	s.inflight = append(s.inflight, b)
	for _, st := range w.staged {
		s.cache.Put(st.key, st.val, st.size)
	}
	select {
	case err := <-b.reply: // answered already: any store but a Sender over a slow link
		s.land(b, err)
		return err
	default:
	}
	if wait {
		return s.await(b)
	}
	return nil
}

// forget drops every cache entry at a storage key kvs names.
func (s *Session) forget(kvs []wire.KV) {
	var key [64]byte // a key the cache does not keep: built without allocating
	for _, kv := range kvs {
		for _, prefix := range cacheNamespaces[kv.NS] {
			s.cache.Delete(string(append(append(key[:0], prefix...), kv.Key...)))
		}
	}
}

// await waits for b's reply, takes b out of flight and returns its error.
// The time it blocks is charged to NETWORK: a reply already in hand cost
// nothing here, and a synchronous store charged its own wait.
func (s *Session) await(b *batch) error {
	var err error
	select {
	case err = <-b.reply:
	default:
		stop := s.rec.Time(obs.ClassNetwork)
		err = <-b.reply
		stop()
	}
	s.land(b, err)
	return err
}

// land takes b, answered with err, out of flight. If it failed, the
// cache forgets every key of b and of every batch sent after it: what
// they staged may rest on what b was to store.
func (s *Session) land(b *batch, err error) {
	for i, f := range s.inflight {
		if f != b {
			continue
		}
		if err != nil {
			for _, later := range s.inflight[i:] {
				s.forget(later.kvs)
			}
		}
		s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
		return
	}
}

// drain waits, in send order, for every batch in flight that match
// selects (all of them for a nil match), and keeps their failures for
// reap to report.
func (s *Session) drain(match func(*batch) bool) {
	for i := 0; i < len(s.inflight); {
		if b := s.inflight[i]; match == nil || match(b) {
			s.failed = errors.Join(s.failed, s.await(b)) // b leaves s.inflight[i]
			continue
		}
		i++
	}
}

// drainNaming waits for every batch in flight that names a key of kvs.
func (s *Session) drainNaming(kvs []wire.KV) {
	if len(s.inflight) == 0 {
		return
	}
	s.drain(func(b *batch) bool {
		for _, kv := range kvs {
			if b.names(kv.NS, kv.Key) {
				return true
			}
		}
		return false
	})
}

// reap takes every reply that has arrived, without waiting for any other,
// and returns the failures among them and those kept since the last reap,
// which it then forgets: each failure is reported once, by the operation
// that reaps it. Every operation reaps first.
func (s *Session) reap() error {
	for i := 0; i < len(s.inflight); {
		select {
		case err := <-s.inflight[i].reply:
			s.land(s.inflight[i], err)
			s.failed = errors.Join(s.failed, err)
		default:
			i++
		}
	}
	err := s.failed
	s.failed = nil
	if err != nil {
		return fmt.Errorf("client: an acknowledged write failed: %w", err)
	}
	return nil
}

// Sync waits for every batch in flight and returns the failures not yet
// reported, once.
func (s *Session) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain(nil)
	return s.reap()
}
