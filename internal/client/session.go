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
package client

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
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
	// Layout is the metadata layout scheme (Scheme-1 or Scheme-2).
	Layout layout.Engine
	// FSID names the filesystem at the SSP.
	FSID string
	// Recorder receives cost instrumentation; may be nil.
	Recorder *stats.Recorder
	// Tracer receives hierarchical spans for every operation: a
	// "client.<op>" root with resolve, CAP-unwrap, RPC and crypto
	// children (see docs/OBSERVABILITY.md). May be nil. When Store is an
	// ssp.Client the tracer is attached to it too, so RPC spans nest
	// inside the op and the SSP joins the trace over the wire.
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
	cache     *cache.Cache
	blockSize uint32
	lazy      bool
	sibChunk  int   // most siblings one getattr miss may prefetch (see siblingChunk)
	fetches   int64 // store read calls made so far (see fetch); beginOp reports the op's share
	groupKeys map[types.GroupID]sharocrypto.PrivateKey
	root      ref
	closed    bool
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
		cache:     cache.New(cfg.CacheBytes),
		blockSize: bs,
		lazy:      cfg.LazyRevocation,
		sibChunk:  siblingChunk(cfg.CacheBytes),
	}
	// Only attach a tracer the caller actually supplied: extra untraced
	// sessions mounted over a shared client (the parallel workloads) must
	// not clobber the tracer the first session installed.
	if sc, ok := cfg.Store.(*ssp.Client); ok && cfg.Tracer != nil {
		sc.Observe(cfg.Tracer)
	}

	// In-band group key distribution (paper §II-A).
	gk, err := keys.FetchGroupKeys(cfg.Store, cfg.User)
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
		blob, err := cfg.Store.Get(wire.NSSuper, meta.SuperKey(cfg.FSID, p.String()))
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
		stop := s.crypto("open-superblock")
		sb, err = meta.OpenSuperblock(priv, blob)
		stop()
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

// Close releases the session. The underlying store is closed if the
// session's config provided an io.Closer (e.g. an ssp.Client connection).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cache.Clear()
	if c, ok := s.store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Refresh drops all locally cached (decrypted) state, forcing the next
// operations to re-fetch from the SSP. Sharoes, like the paper's
// prototype, provides no cross-client cache coherence protocol — the
// paper defers consistency semantics to a SUNDR-style integration (§VI) —
// so a client that must observe another client's recent writes calls
// Refresh (close-to-open consistency done by hand).
func (s *Session) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.Clear()
}

// CacheStats exposes cache hit/miss counts for experiments.
func (s *Session) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// User returns the mounted user's ID.
func (s *Session) User() types.UserID { return s.user.ID }

// crypto returns a stopwatch charging the CRYPTO component and, with a
// tracer attached, recording a "crypto.<name>" leaf span. The name is a
// fixed operation label — never key material or user data (the keyleak
// analyzer enforces this for obs sinks).
func (s *Session) crypto(name string) func() {
	sp := s.tracer.Start("crypto."+name, obs.ClassCrypto)
	stop := s.rec.Time(stats.Crypto)
	return func() {
		stop()
		sp.End()
	}
}

// beginOp opens the root span and stopwatch for one vfs operation; the
// returned func closes the span, observes the op's latency histogram and
// counts the op on the recorder. Usage: defer s.beginOp("stat")().
func (s *Session) beginOp(op string) func() {
	sp := s.tracer.Start("client."+op, obs.ClassNone)
	start, fetched := time.Now(), s.fetches
	return func() {
		sp.End()
		if s.metrics != nil {
			s.metrics.Counter("client.op." + op).Inc()
			s.metrics.Counter("client.op." + op + ".fetches").Add(s.fetches - fetched)
			s.metrics.Histogram("client.op." + op + ".ns").Observe(time.Since(start))
		}
		s.rec.AddOp()
	}
}

// triplet returns the permission triplet applying to the session user:
// owner bits, then any ACL grant, then group, then other.
func (s *Session) triplet(attr meta.Attr) types.Triplet {
	return attr.EffectiveTriplet(s.user.ID, s.reg.IsMember)
}

// randInode allocates a fresh inode number. Clients allocate inodes (the
// SSP is untrusted); random 64-bit values make concurrent clients
// collision-free without coordination.
func randInode() types.Inode {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic("client: entropy unavailable: " + err.Error())
		}
		ino := types.Inode(binary.BigEndian.Uint64(b[:]))
		if ino > types.RootInode {
			return ino
		}
	}
}

// newObjectKeys mints the complete key material for a new object.
func newObjectKeys() meta.KeySet {
	dsk, dvk := sharocrypto.NewSigningPair()
	msk, _ := sharocrypto.NewSigningPair()
	return meta.KeySet{
		DEK:      sharocrypto.NewSymKey(),
		DataSeed: sharocrypto.NewSymKey(),
		DVK:      dvk,
		DSK:      dsk,
		MSK:      msk,
		MetaSeed: sharocrypto.NewSymKey(),
	}
}

// --- fetch/cache layer -------------------------------------------------

const (
	ckMeta     = "M|"
	ckView     = "V|" // reader-side decoded views
	ckWTable   = "W|" // writer-side decoded per-variant tables
	ckManifest = "F|"
	ckBlock    = "B|"
	ckRef      = "R|" // resolved directory-entry refs, keyed by parent inode
	ckListed   = "L|" // directories ReadDir has listed, keyed like ckView
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
	if v, ok := s.cache.Get(ckMeta + meta.MetaKey(r.ino, r.variant)); ok {
		return v.(*meta.Metadata), nil, nil
	}
	return s.fetchMetaMiss(r, with, dirent{}, nil)
}

// fetchMetaMiss is the one round trip of a metadata miss: the metadata,
// its companions unless already cached, whatever else the caller can name
// and will open out of the reply itself (ride) and, for a getattr miss
// inside a directory ReadDir has listed (at names the row), the siblings
// that follow it — verified and cached before the target, so the object
// actually asked for ends up the most recently used entry when a finite
// cache has to evict.
func (s *Session) fetchMetaMiss(r ref, with companion, at dirent, ride []wire.KV) (*meta.Metadata, replyIndex, error) {
	metaKey := meta.MetaKey(r.ino, r.variant)
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
	sibs := s.listedSiblings(at)
	var batch *obs.Span
	if len(sibs) > 0 {
		batch = s.tracer.Start("client.stat.batch", obs.ClassNone)
		for _, sib := range sibs {
			want = appendStatKeys(want, sib.r)
		}
	}
	pre, err := s.fetch(want)
	if err == nil && len(sibs) > 0 {
		s.cacheSiblings(at.dir, sibs, pre)
	}
	batch.End()
	if err != nil {
		return nil, nil, err
	}
	blob, ok := pre.get(wire.NSMeta, metaKey)
	if !ok {
		return nil, nil, types.ErrNotExist
	}
	stop := s.crypto("open-meta")
	m, err := meta.OpenMetadata(r.mek, r.mvk, meta.MetaAAD(r.ino, r.variant), blob)
	stop()
	if err != nil {
		return nil, nil, err
	}
	s.cache.Put(ckMeta+metaKey, m, int64(len(blob)))
	return m, pre, nil
}

// cached reports whether key is in the session cache.
func (s *Session) cached(key string) bool {
	_, ok := s.cache.Get(key)
	return ok
}

// openViewOf retrieves and opens the directory-table view belonging to
// the metadata variant the caller holds, from the cache, from pre (the
// reply that carried the metadata) or by a fetch of its own. A missing
// view is treated as an empty directory (fresh directories store views
// eagerly, so in an untampered store this only happens for variants that
// legitimately have no view).
func (s *Session) openViewOf(r ref, m *meta.Metadata, pre replyIndex) (*cap.View, error) {
	if m.Keys.DEK.IsZero() {
		return nil, types.ErrPermission
	}
	key := meta.TableKey(r.ino, r.variant)
	if v, ok := s.cache.Get(ckView + key); ok {
		return v.(*cap.View), nil
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
		return cap.EmptyView(shape), nil
	}
	stop := s.crypto("open-view")
	v, err := cap.OpenView(r.variant, m.Keys.DEK, m.Keys.DVK, r.ino, blob)
	stop()
	if err != nil {
		return nil, err
	}
	s.cache.Put(ckView+key, v, int64(len(blob)))
	return v, nil
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

// invalidateObject drops all cached state for an inode, including the
// resolved refs of its directory entries (the inode may be a directory
// whose table is about to change under it).
func (s *Session) invalidateObject(ino types.Inode) {
	id := strconv.FormatUint(uint64(ino), 10) + "/"
	s.cache.DeletePrefix(
		ckMeta+"m/"+id,
		ckView+"t/"+id,
		ckWTable+"t/"+id,
		ckManifest+"f/"+id,
		ckBlock+"f/"+id,
		ckRef+"d/"+id,
		ckListed+"t/"+id,
	)
}
