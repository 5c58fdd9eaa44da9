// Package vfs defines the filesystem interface that the Sharoes client,
// the four baseline implementations, the benchmark workloads and the
// examples all share.
//
// In the paper the client filesystem is mounted through FUSE; this library
// exposes the identical operation vocabulary as a Go API instead (the FUSE
// kernel shim adds nothing the evaluation measures — every cost lives in
// the network, cryptography and metadata manipulation behind it).
package vfs

import (
	"time"

	"github.com/sharoes/sharoes/internal/types"
)

// Info describes a filesystem object — what getattr/stat returns.
type Info struct {
	Name  string
	Inode types.Inode
	Kind  types.ObjKind
	Owner types.UserID
	Group types.GroupID
	Perm  types.Perm
	Size  uint64
	MTime time.Time
}

// IsDir reports whether the object is a directory.
func (i Info) IsDir() bool { return i.Kind == types.KindDir }

// FS is the operation vocabulary shared by the Sharoes filesystem and the
// baselines. All paths are absolute and slash-separated.
type FS interface {
	// Stat returns the object's attributes (the getattr operation:
	// obtain encrypted metadata and decrypt it).
	Stat(path string) (Info, error)

	// Mkdir creates a directory (create metadata per CAP, re-encrypt the
	// parent directory table).
	Mkdir(path string, perm types.Perm) error

	// Create creates an empty file (mknod).
	Create(path string, perm types.Perm) error

	// WriteFile creates or replaces a file's content; encryption happens
	// here, modelling the paper's write-back-on-close behaviour.
	WriteFile(path string, data []byte, perm types.Perm) error

	// Append extends a file, re-encrypting only the trailing blocks.
	Append(path string, data []byte) error

	// ReadFile fetches, verifies and decrypts a file's content.
	ReadFile(path string) ([]byte, error)

	// ReadDir lists entry names (requires the read CAP on the directory).
	ReadDir(path string) ([]string, error)

	// Chmod changes permissions: new CAPs are constructed and, on
	// revocation, data is re-encrypted under fresh keys.
	Chmod(path string, perm types.Perm) error

	// Chown changes ownership (owner and/or group).
	Chown(path string, owner types.UserID, group types.GroupID) error

	// Remove unlinks a file or removes an empty directory.
	Remove(path string) error

	// Rename moves an object. Implementations may restrict cross-
	// ownership-domain moves.
	Rename(oldPath, newPath string) error

	// SetACL grants (or updates) a per-user permission on the object —
	// the POSIX-ACL extension. Systems without ACL support return
	// ErrUnsupportedPerm.
	SetACL(path string, user types.UserID, rights types.Triplet) error

	// RemoveACL revokes a per-user grant.
	RemoveACL(path string, user types.UserID) error

	// GetACL lists the object's per-user grants.
	GetACL(path string) ([]types.ACLEntry, error)

	// Sync waits until every write made so far has been answered by the
	// SSP and returns the failures not yet reported. Benchmarks end each
	// timed phase with it, so a phase's time includes its writes.
	Sync() error

	// Refresh drops the client's local cache of decrypted objects,
	// forcing subsequent operations back to the SSP. Benchmarks use it
	// to model phase boundaries (each Andrew phase is a separate
	// process) and cross-client visibility.
	Refresh()

	// Close releases the session.
	Close() error
}
