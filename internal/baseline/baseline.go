// Package baseline implements the four comparison filesystems of the
// paper's evaluation (§V):
//
//	NO-ENC-MD-D — no encryption at all: the floor for networking and
//	              implementation overheads of a wide-area filesystem.
//	NO-ENC-MD   — plaintext metadata, symmetric-key data encryption.
//	PUBLIC      — metadata objects encrypted entirely with the public
//	              keys of authorized users (SiRiUS/SNAD/Farsite style);
//	              every stat pays per-chunk private-key decryptions.
//	PUB-OPT     — metadata encrypted with a symmetric key that is itself
//	              public-key-wrapped per user; one private-key operation
//	              per metadata read.
//
// The four modes share one implementation with each other, but only
// their building blocks with the Sharoes client: the same SSP and wire
// protocol (ssp.BlobStore), the same cache, key registry and crypto
// primitives. Their path walk, object fetch, readdir, metadata and table
// codecs and block layout are their own (ops.go, codec.go): one
// unbatched round trip per hop and per object, with none of the client's
// batched fetches, sibling-batched getattr or tail-block key. So a
// measured difference against the client mixes the metadata cryptography
// with the client's round-trip savings; it is not the cryptography
// alone, as in the paper's comparison. ROADMAP.md item 4 tracks putting
// the four modes back on the one client.
//
// The NO-ENC modes authenticate nothing by design; the unverified allow
// directives in this package mark the places that cache or write through
// such unauthenticated objects.
package baseline

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sharoes/sharoes/internal/binenc"
	"github.com/sharoes/sharoes/internal/cache"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
)

// Mode selects the comparison implementation.
type Mode uint8

// Baseline modes, in the order the paper's figures list them.
const (
	NoEncMDD Mode = iota + 1 // NO-ENC-MD-D
	NoEncMD                  // NO-ENC-MD
	Public                   // PUBLIC
	PubOpt                   // PUB-OPT
)

// String implements fmt.Stringer using the paper's labels.
func (m Mode) String() string {
	switch m {
	case NoEncMDD:
		return "NO-ENC-MD-D"
	case NoEncMD:
		return "NO-ENC-MD"
	case Public:
		return "PUBLIC"
	case PubOpt:
		return "PUB-OPT"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// EncryptsData reports whether the mode encrypts file and directory data.
func (m Mode) EncryptsData() bool { return m != NoEncMDD }

// EncryptsMetadata reports whether the mode protects metadata.
func (m Mode) EncryptsMetadata() bool { return m == Public || m == PubOpt }

// bMeta is a baseline metadata object: a traditional inode plus the data
// key (baselines have no CAP machinery; the DEK travels with whatever
// protection the mode gives metadata).
type bMeta struct {
	Attr struct {
		Inode types.Inode
		Kind  types.ObjKind
		Owner types.UserID
		Group types.GroupID
		Perm  types.Perm
		Size  uint64
		MTime int64
	}
	DEK sharocrypto.SymKey
}

// metaPadSize pads serialized metadata to a representative on-disk inode
// size (an ext2 inode is 128 B; the SiRiUS-style md-files the PUBLIC
// baseline models carry key blocks and signatures and run several hundred
// bytes). A fixed size keeps the four modes byte-identical on the wire so
// measured differences are purely cryptographic, and it determines how
// many RSA chunks the PUBLIC mode pays per metadata operation.
const metaPadSize = 512

func (m *bMeta) encode() []byte {
	var w binenc.Writer
	w.Uvarint(uint64(m.Attr.Inode))
	w.Byte(byte(m.Attr.Kind))
	w.String(string(m.Attr.Owner))
	w.String(string(m.Attr.Group))
	w.Uvarint(uint64(m.Attr.Perm))
	w.Uvarint(m.Attr.Size)
	w.Uvarint(uint64(m.Attr.MTime))
	w.Raw(m.DEK[:])
	if n := metaPadSize - w.Len(); n > 0 {
		w.Raw(make([]byte, n))
	}
	return w.Bytes()
}

func decodeBMeta(b []byte) (*bMeta, error) {
	r := binenc.NewReader(b)
	var m bMeta
	ino, err := r.Uvarint()
	if err != nil {
		return nil, badMeta(err)
	}
	m.Attr.Inode = types.Inode(ino)
	kind, err := r.Byte()
	if err != nil {
		return nil, badMeta(err)
	}
	m.Attr.Kind = types.ObjKind(kind)
	owner, err := r.String()
	if err != nil {
		return nil, badMeta(err)
	}
	m.Attr.Owner = types.UserID(owner)
	group, err := r.String()
	if err != nil {
		return nil, badMeta(err)
	}
	m.Attr.Group = types.GroupID(group)
	perm, err := r.Uvarint()
	if err != nil {
		return nil, badMeta(err)
	}
	m.Attr.Perm = types.Perm(perm)
	if m.Attr.Size, err = r.Uvarint(); err != nil {
		return nil, badMeta(err)
	}
	mt, err := r.Uvarint()
	if err != nil {
		return nil, badMeta(err)
	}
	m.Attr.MTime = int64(mt)
	raw, err := r.Raw(sharocrypto.SymKeySize)
	if err != nil {
		return nil, badMeta(err)
	}
	copy(m.DEK[:], raw)
	return &m, nil
}

func badMeta(err error) error { return fmt.Errorf("baseline: bad metadata: %w", err) }

// bTable is a baseline directory table: the plain ext2 two-column table.
type bTable struct {
	entries map[string]types.Inode
}

func newBTable() *bTable { return &bTable{entries: map[string]types.Inode{}} }

func (t *bTable) clone() *bTable {
	out := newBTable()
	for k, v := range t.entries {
		out.entries[k] = v
	}
	return out
}

func (t *bTable) encode() []byte {
	var w binenc.Writer
	w.Uvarint(uint64(len(t.entries)))
	names := make([]string, 0, len(t.entries))
	for n := range t.entries {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		w.String(n)
		w.Uvarint(uint64(t.entries[n]))
	}
	return w.Bytes()
}

func decodeBTable(b []byte) (*bTable, error) {
	r := binenc.NewReader(b)
	n, err := r.Uvarint()
	if err != nil {
		return nil, badMeta(err)
	}
	if n > uint64(r.Remaining()) {
		return nil, badMeta(errors.New("absurd entry count"))
	}
	t := newBTable()
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, badMeta(err)
		}
		ino, err := r.Uvarint()
		if err != nil {
			return nil, badMeta(err)
		}
		t.entries[name] = types.Inode(ino)
	}
	return t, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Config configures a baseline mount.
type Config struct {
	Store      ssp.BlobStore
	Mode       Mode
	User       *keys.User
	Registry   *keys.Registry
	FSID       string
	Recorder   *stats.Recorder
	CacheBytes int64
	BlockSize  uint32
}

// Session is a mounted baseline filesystem. It implements vfs.FS.
type Session struct {
	mu        sync.Mutex
	store     ssp.BlobStore
	mode      Mode
	user      *keys.User
	reg       *keys.Registry
	fsid      string
	rec       *stats.Recorder
	cache     *cache.Cache
	blockSize uint32
	users     []types.UserID // authorized users (metadata replication targets)
	closed    bool
}

var _ vfs.FS = (*Session)(nil)

// Mount opens a baseline session.
func Mount(cfg Config) (*Session, error) {
	if cfg.Store == nil || cfg.User == nil || cfg.Registry == nil || cfg.Mode == 0 {
		return nil, errors.New("baseline: incomplete config")
	}
	bs := cfg.BlockSize
	if bs == 0 {
		bs = 64 * 1024
	}
	s := &Session{
		store:     cfg.Store,
		mode:      cfg.Mode,
		user:      cfg.User,
		reg:       cfg.Registry,
		fsid:      cfg.FSID,
		rec:       cfg.Recorder,
		cache:     cache.New(cfg.CacheBytes),
		blockSize: bs,
		users:     cfg.Registry.Users(),
	}
	// Verify the filesystem exists (and that we can decrypt the root).
	if _, err := s.fetchMeta(types.RootInode); err != nil {
		return nil, fmt.Errorf("baseline: mount: %w", err)
	}
	return s, nil
}

// Close implements vfs.FS.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cache.Clear()
	return nil
}

// Refresh drops cached state (same semantics as the Sharoes client).
func (s *Session) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.Clear()
}

func (s *Session) crypto() func() { return s.rec.Time(stats.Crypto) }

func (s *Session) classOf(m *bMeta) types.Class {
	return s.reg.ClassOf(s.user.ID, m.Attr.Owner, m.Attr.Group)
}

func (s *Session) triplet(m *bMeta) types.Triplet {
	return m.Attr.Perm.TripletFor(s.classOf(m))
}

// --- storage keys -----------------------------------------------------------

func (s *Session) metaKey(ino types.Inode) string {
	base := fmt.Sprintf("%s/m/%d", s.fsid, uint64(ino))
	if s.mode == Public {
		// Per-user replicas, like Scheme-1 ("every metadata object is
		// separately encrypted with the public keys of all users",
		// paper §III-D1). PUB-OPT shares one symmetric body and stores
		// per-user wrapped keys instead (see wrapKey).
		return base + "/u/" + string(s.user.ID)
	}
	return base
}

// wrapKey is where PUB-OPT stores each user's wrapped symmetric key.
func (s *Session) wrapKey(ino types.Inode, u types.UserID) string {
	return fmt.Sprintf("%s/mk/%d/u/%s", s.fsid, uint64(ino), u)
}

func (s *Session) tableKey(ino types.Inode) string {
	return fmt.Sprintf("%s/t/%d", s.fsid, uint64(ino))
}

func (s *Session) blockKey(ino types.Inode, idx uint32) string {
	return fmt.Sprintf("%s/f/%d/%d", s.fsid, uint64(ino), idx)
}

func (s *Session) filePrefix(ino types.Inode) string {
	return fmt.Sprintf("%s/f/%d/", s.fsid, uint64(ino))
}
