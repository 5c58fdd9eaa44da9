// Package sharoes is a data sharing platform for outsourced enterprise
// storage environments — a from-scratch Go reproduction of
//
//	Aameek Singh and Ling Liu, "Sharoes: A Data Sharing Platform for
//	Outsourced Enterprise Storage Environments", ICDE 2008.
//
// Sharoes provides rich *nix-like data sharing semantics over data stored
// at an untrusted Storage Service Provider (SSP), without trusting the
// SSP for confidentiality or access control. Access control is enforced
// with Cryptographic Access control Primitives (CAPs): the permission a
// user holds is exactly the set of keys reachable from their copy of the
// filesystem structures. Key management is entirely in-band — a user
// manages one private key; every other key arrives by walking the
// filesystem itself.
//
// The package re-exports the public surface of the implementation:
// principals and the key registry, the SSP server and stores, the two
// metadata layout schemes, the client filesystem, the migration tool,
// the network simulator, and the four comparison baselines — sealing
// modes that Bootstrap and Mount take in place of a layout scheme, so
// that all five systems run on the one client.
//
// A minimal end-to-end session:
//
//	reg := sharoes.NewRegistry()
//	alice, _ := sharoes.NewUser("alice")
//	reg.AddUser("alice", alice.Public())
//
//	store := sharoes.NewMemStore()
//	_ = sharoes.Bootstrap(sharoes.MigrateOptions{
//		Store: store, Registry: reg, Layout: sharoes.NewScheme2(reg),
//		FSID: "corp", RootOwner: "alice",
//	})
//
//	fs, _ := sharoes.Mount(sharoes.MountConfig{
//		Store: store, User: alice, Registry: reg,
//		Layout: sharoes.NewScheme2(reg), FSID: "corp",
//	})
//	defer fs.Close()
//	_ = fs.WriteFile("/hello.txt", []byte("hi"), 0o644)
package sharoes

import (
	"github.com/sharoes/sharoes/internal/baseline"
	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// --- domain types ------------------------------------------------------

// Core identity and permission types.
type (
	// UserID names an enterprise user.
	UserID = types.UserID
	// GroupID names a user group.
	GroupID = types.GroupID
	// Perm holds the nine *nix permission bits.
	Perm = types.Perm
	// Inode identifies a filesystem object.
	Inode = types.Inode
	// Triplet is one rwx permission triplet, used by ACL grants.
	Triplet = types.Triplet
	// ACLEntry is a per-user permission grant (the POSIX-ACL extension).
	ACLEntry = types.ACLEntry
	// Info is what Stat returns.
	Info = vfs.Info
	// FS is the filesystem interface the client implements.
	FS = vfs.FS
)

// ParsePerm parses an octal permission string such as "755".
func ParsePerm(s string) (Perm, error) { return types.ParsePerm(s) }

// Triplet bits for ACL grants.
const (
	TripletRead  = types.TripletRead
	TripletWrite = types.TripletWrite
	TripletExec  = types.TripletExec
)

// Sentinel errors returned by filesystem operations; test with errors.Is.
var (
	ErrNotExist        = types.ErrNotExist
	ErrExist           = types.ErrExist
	ErrPermission      = types.ErrPermission
	ErrNotDir          = types.ErrNotDir
	ErrIsDir           = types.ErrIsDir
	ErrNotEmpty        = types.ErrNotEmpty
	ErrTampered        = types.ErrTampered
	ErrUnsupportedPerm = types.ErrUnsupportedPerm
)

// --- principals and keys ------------------------------------------------

// Principal types: a User holds the one private key they manage; the
// Registry is the enterprise directory of public keys and memberships.
type (
	// User is a principal with their private key.
	User = keys.User
	// Group is a group principal.
	Group = keys.Group
	// Registry is the enterprise public-key and membership directory.
	Registry = keys.Registry
)

// NewUser generates a user with a fresh RSA-2048 key pair.
func NewUser(id UserID) (*User, error) { return keys.NewUser(id) }

// NewGroup generates a group with a fresh key pair.
func NewGroup(id GroupID) (*Group, error) { return keys.NewGroup(id) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return keys.NewRegistry() }

// PublishGroupKey stores a group's private key at the SSP wrapped per
// member — the in-band group key distribution of the paper.
func PublishGroupKey(store BlobStore, reg *Registry, g *Group) error {
	return keys.PublishGroupKey(store, reg, g)
}

// LoadUser reads a user key file saved with (*User).Save.
func LoadUser(path string) (*User, error) { return keys.LoadUser(path) }

// LoadRegistry reads a registry file saved with (*Registry).Save.
func LoadRegistry(path string) (*Registry, error) { return keys.LoadRegistry(path) }

// --- SSP ----------------------------------------------------------------

// Storage-side types: the SSP is an untrusted hashtable of encrypted blobs.
type (
	// BlobStore is the SSP storage abstraction.
	BlobStore = ssp.BlobStore
	// Server serves a BlobStore over the wire protocol.
	Server = ssp.Server
	// MemStore is the in-memory backend.
	MemStore = ssp.MemStore
	// DiskStore is the durable on-disk backend.
	DiskStore = ssp.DiskStore
	// Dialer opens connections to a remote SSP.
	Dialer = ssp.Dialer
	// Recorder accumulates NETWORK and CRYPTO time plus op and byte counts.
	Recorder = stats.Recorder
)

// NewMemStore returns an empty in-memory SSP store.
func NewMemStore() *MemStore { return ssp.NewMemStore() }

// NewDiskStore opens (creating if needed) a durable store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) { return ssp.NewDiskStore(dir) }

// NewServer creates an SSP server over store.
func NewServer(store BlobStore) *Server { return ssp.NewServer(store, nil) }

// DialSSP connects to a remote SSP as a blob store; rec may be nil.
func DialSSP(dial Dialer, rec *Recorder) (BlobStore, error) { return ssp.Dial(dial, rec) }

// AllBlobs returns every blob currently stored at the SSP, across all
// namespaces — the attacker's-eye view of the store. Audits use it to
// verify that nothing sensitive is visible in plaintext.
func AllBlobs(store BlobStore) ([][]byte, error) {
	var out [][]byte
	for ns := wire.NSMeta; ns <= wire.NSSys; ns++ {
		items, err := store.List(ns, "")
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			out = append(out, it.Val)
		}
	}
	return out, nil
}

// --- layout schemes -----------------------------------------------------

// LayoutEngine is a metadata layout scheme (paper §III-D).
type LayoutEngine = layout.Engine

// NewScheme1 replicates the metadata tree per user: simple and split-free,
// with O(users) storage and update cost.
func NewScheme1(reg *Registry) LayoutEngine { return layout.NewScheme1(reg) }

// NewScheme2 shares CAP copies between users of the same accessor class,
// using public-key-sealed pointers at the rare split points.
func NewScheme2(reg *Registry) LayoutEngine { return layout.NewScheme2(reg) }

// --- client filesystem ----------------------------------------------------

// MountConfig configures a client mount.
type MountConfig = client.Config

// Session is a mounted Sharoes filesystem for one user.
type Session = client.Session

// Mount opens a Sharoes session: one private-key operation to unseal the
// user's superblock, after which every key is obtained in-band.
func Mount(cfg MountConfig) (*Session, error) { return client.Mount(cfg) }

// File is an open file handle with the paper's write-back-on-close
// semantics: writes buffer locally and are encrypted and uploaded when
// the handle closes.
type File = client.File

// Flags for Session.OpenFile.
const (
	// OReadFlag opens for reading only.
	OReadFlag = client.ORead
	// OWriteFlag opens for reading and writing.
	OWriteFlag = client.OWrite
	// OCreateFlag creates the file if missing (with OWriteFlag).
	OCreateFlag = client.OCreate
	// OTruncFlag truncates at open (with OWriteFlag).
	OTruncFlag = client.OTrunc
)

// --- migration -------------------------------------------------------------

// Migration types: the trusted enterprise-side transition tool.
type (
	// MigrateOptions configures bootstrap and migration.
	MigrateOptions = migrate.Options
	// MigrateNode describes one object of a tree to migrate.
	MigrateNode = migrate.Node
	// MigrateStats summarizes a migration.
	MigrateStats = migrate.Stats
)

// Bootstrap creates an empty filesystem with a superblock per user.
func Bootstrap(opts MigrateOptions) error { return migrate.Bootstrap(opts) }

// MigrateTree encrypts and uploads a whole tree as the new filesystem.
func MigrateTree(opts MigrateOptions, root MigrateNode) (MigrateStats, error) {
	return migrate.MigrateTree(opts, root)
}

// FromLocalDir builds a migration tree from a local directory.
func FromLocalDir(dir string, owner UserID, group GroupID) (MigrateNode, error) {
	return migrate.FromLocalDir(dir, owner, group)
}

// MigrateDir builds a directory node for a synthetic migration tree.
func MigrateDir(name string, owner UserID, group GroupID, perm Perm, children ...MigrateNode) MigrateNode {
	return migrate.Dir(name, owner, group, perm, children...)
}

// MigrateFile builds a file node for a synthetic migration tree.
func MigrateFile(name string, owner UserID, group GroupID, perm Perm, data []byte) MigrateNode {
	return migrate.File(name, owner, group, perm, data)
}

// --- network simulation -----------------------------------------------------

// NetProfile describes a simulated WAN link.
type NetProfile = netsim.Profile

// Predefined link profiles.
var (
	// ProfileDSL is the paper's measured home-DSL link: 850 Kbit/s up,
	// 350 Kbit/s down, ~40 ms RTT.
	ProfileDSL = netsim.DSL
	// ProfileLAN approximates a local gigabit network.
	ProfileLAN = netsim.LAN
	// ProfileUnlimited applies no shaping.
	ProfileUnlimited = netsim.Unlimited
)

// NetListener accepts simulated connections for an SSP server.
type NetListener = netsim.Listener

// ListenSim creates a simulated listener whose connections are shaped by p.
func ListenSim(p NetProfile) *NetListener { return netsim.Listen(p) }

// --- baselines ----------------------------------------------------------------

// BaselineMode selects NO-ENC-MD-D, NO-ENC-MD, PUBLIC or PUB-OPT, the
// paper's four comparison systems.
type BaselineMode = baseline.Mode

// Baseline modes.
const (
	BaselineNoEncMDD = baseline.NoEncMDD
	BaselineNoEncMD  = baseline.NoEncMD
	BaselinePublic   = baseline.Public
	BaselinePubOpt   = baseline.PubOpt
)

// NewBaseline returns a baseline as a layout engine: the sealing mode
// that, in MigrateOptions.Layout and MountConfig.Layout, makes Bootstrap
// and Mount build and run that comparison system on the one client.
func NewBaseline(mode BaselineMode, reg *Registry) LayoutEngine { return baseline.New(mode, reg) }
