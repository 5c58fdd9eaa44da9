// Package types holds the small set of domain types shared by every
// Sharoes subsystem: inode numbers, principals, object kinds, and the
// *nix permission bits the CAP design replicates.
package types

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Inode identifies a filesystem object. Inode numbers are allocated by
// clients (the SSP is untrusted and does no allocation); see NewInode.
type Inode uint64

// RootInode is the conventional inode of the namespace root ("/").
const RootInode Inode = 1

// NewInode allocates a fresh inode number. Random 64-bit values make
// concurrent clients collision-free without coordination; values up to
// RootInode are reserved, and drawn again.
func NewInode() Inode {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic("types: entropy unavailable: " + err.Error())
		}
		if ino := Inode(binary.BigEndian.Uint64(b[:])); ino > RootInode {
			return ino
		}
	}
}

// String implements fmt.Stringer.
func (i Inode) String() string { return fmt.Sprintf("ino:%d", uint64(i)) }

// UserID names an enterprise user. In the paper a user's identity is their
// public/private key pair; the ID is the handle under which that pair is
// registered (comparable to an IBE email address).
type UserID string

// GroupID names a user group. Groups, like users, own a key pair.
type GroupID string

// ObjKind distinguishes files from directories.
type ObjKind uint8

// Object kinds.
const (
	KindInvalid ObjKind = iota
	KindFile
	KindDir
)

// String implements fmt.Stringer.
func (k ObjKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	default:
		return "invalid"
	}
}

// Perm holds the nine *nix permission bits (rwxrwxrwx for owner, group and
// other). Higher mode bits (setuid and friends) are out of scope; the paper
// defers setuid to future work.
type Perm uint16

// Permission bit masks, mirroring the POSIX layout.
const (
	PermOtherExec Perm = 1 << iota
	PermOtherWrite
	PermOtherRead
	PermGroupExec
	PermGroupWrite
	PermGroupRead
	PermOwnerExec
	PermOwnerWrite
	PermOwnerRead

	PermMask Perm = 1<<9 - 1
)

// Triplet is a single rwx permission triplet for one accessor class.
type Triplet uint8

// Triplet bits.
const (
	TripletExec Triplet = 1 << iota
	TripletWrite
	TripletRead
)

// CanRead reports whether the triplet grants read.
func (t Triplet) CanRead() bool { return t&TripletRead != 0 }

// CanWrite reports whether the triplet grants write.
func (t Triplet) CanWrite() bool { return t&TripletWrite != 0 }

// CanExec reports whether the triplet grants execute/traverse.
func (t Triplet) CanExec() bool { return t&TripletExec != 0 }

// String renders the triplet in ls(1) style, e.g. "r-x".
func (t Triplet) String() string {
	var b [3]byte
	b[0], b[1], b[2] = '-', '-', '-'
	if t.CanRead() {
		b[0] = 'r'
	}
	if t.CanWrite() {
		b[1] = 'w'
	}
	if t.CanExec() {
		b[2] = 'x'
	}
	return string(b[:])
}

// Owner returns the owner triplet.
func (p Perm) Owner() Triplet { return Triplet(p >> 6 & 7) }

// Group returns the group triplet.
func (p Perm) Group() Triplet { return Triplet(p >> 3 & 7) }

// Other returns the other triplet.
func (p Perm) Other() Triplet { return Triplet(p & 7) }

// WithOwner returns p with the owner triplet replaced.
func (p Perm) WithOwner(t Triplet) Perm { return p&^(7<<6) | Perm(t&7)<<6 }

// WithGroup returns p with the group triplet replaced.
func (p Perm) WithGroup(t Triplet) Perm { return p&^(7<<3) | Perm(t&7)<<3 }

// WithOther returns p with the other triplet replaced.
func (p Perm) WithOther(t Triplet) Perm { return p&^7 | Perm(t&7) }

// String renders the permission in ls(1) style, e.g. "rwxr-x--x".
func (p Perm) String() string {
	return p.Owner().String() + p.Group().String() + p.Other().String()
}

// ParsePerm parses an octal permission string such as "755".
func ParsePerm(s string) (Perm, error) {
	if len(s) == 0 || len(s) > 4 {
		return 0, fmt.Errorf("types: bad permission %q", s)
	}
	var v Perm
	for _, c := range s {
		if c < '0' || c > '7' {
			return 0, fmt.Errorf("types: bad permission %q", s)
		}
		v = v<<3 | Perm(c-'0')
	}
	return v & PermMask, nil
}

// ACLEntry grants one user a permission triplet on an object — the
// POSIX-ACL extension (paper §III-D2 names ACLs as the typical cause of
// permission divergence among users sharing a CAP).
type ACLEntry struct {
	User   UserID
	Rights Triplet
}

// Class identifies which accessor class a principal falls into for a given
// object, following the first-match rule of the original UNIX model: owner,
// then group, then other.
type Class uint8

// Accessor classes.
const (
	ClassOwner Class = iota
	ClassGroup
	ClassOther
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassOwner:
		return "owner"
	case ClassGroup:
		return "group"
	default:
		return "other"
	}
}

// TripletFor returns the triplet that applies to the given class.
func (p Perm) TripletFor(c Class) Triplet {
	switch c {
	case ClassOwner:
		return p.Owner()
	case ClassGroup:
		return p.Group()
	default:
		return p.Other()
	}
}

// Sentinel errors shared across the system. Client operations wrap these
// with path context; tests unwrap with errors.Is.
var (
	ErrNotExist        = errors.New("sharoes: no such file or directory")
	ErrExist           = errors.New("sharoes: file exists")
	ErrPermission      = errors.New("sharoes: permission denied")
	ErrNotDir          = errors.New("sharoes: not a directory")
	ErrIsDir           = errors.New("sharoes: is a directory")
	ErrNotEmpty        = errors.New("sharoes: directory not empty")
	ErrTampered        = errors.New("sharoes: integrity verification failed")
	ErrUnsupportedPerm = errors.New("sharoes: permission setting unsupported in outsourced model")
	ErrNoSuchUser      = errors.New("sharoes: unknown principal")
	ErrClosed          = errors.New("sharoes: use of closed handle")
	ErrInvalidPath     = errors.New("sharoes: invalid path")
)

// PathError records an error and the path that caused it.
type PathError struct {
	Op   string
	Path string
	Err  error
}

// Error implements the error interface.
func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap supports errors.Is / errors.As.
func (e *PathError) Unwrap() error { return e.Err }

// CleanPath normalizes an absolute slash-separated path, resolving "." and
// ".." lexically. It returns ErrInvalidPath for relative or empty paths.
func CleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q", ErrInvalidPath, p)
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

// SplitPath returns the cleaned parent directory and base name of p.
// The root path has parent "/" and base "".
func SplitPath(p string) (dir, base string, err error) {
	cp, err := CleanPath(p)
	if err != nil {
		return "", "", err
	}
	if cp == "/" {
		return "/", "", nil
	}
	i := strings.LastIndexByte(cp, '/')
	if i == 0 {
		return "/", cp[1:], nil
	}
	return cp[:i], cp[i+1:], nil
}

// PathComponents splits a cleaned absolute path into its components.
// The root path yields an empty slice.
func PathComponents(p string) ([]string, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return nil, err
	}
	if cp == "/" {
		return nil, nil
	}
	return strings.Split(cp[1:], "/"), nil
}
