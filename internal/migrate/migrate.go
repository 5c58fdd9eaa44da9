// Package migrate implements the Sharoes migration tool (paper §IV): the
// trusted enterprise-side component that transitions local storage to the
// outsourced model. It creates the cryptographic infrastructure (user and
// group keys when needed), bulk-encrypts a directory tree into CAP form,
// uploads it in large batches, and seals a superblock per principal.
package migrate

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// Options configures a migration.
type Options struct {
	Store    ssp.BlobStore
	Registry *keys.Registry
	Layout   layout.Engine
	FSID     string
	// RootOwner and RootGroup own the namespace root.
	RootOwner types.UserID
	RootGroup types.GroupID
	// RootPerm defaults to 0755.
	RootPerm types.Perm
	// BlockSize defaults to 64 KiB.
	BlockSize uint32
	// BatchBytes caps the size of one upload batch (default 4 MiB).
	BatchBytes int
}

func (o *Options) defaults() {
	if o.RootPerm == 0 {
		o.RootPerm = 0o755
	}
	if o.BlockSize == 0 {
		o.BlockSize = 64 * 1024
	}
	if o.BatchBytes == 0 {
		o.BatchBytes = 4 << 20
	}
}

// Node describes one object of a tree to migrate. The zero Perm is
// replaced with 0644 for files and 0755 for directories.
type Node struct {
	Name     string
	Kind     types.ObjKind
	Owner    types.UserID
	Group    types.GroupID
	Perm     types.Perm
	Data     []byte // files only
	Children []Node // directories only
}

// Dir builds a directory node.
func Dir(name string, owner types.UserID, group types.GroupID, perm types.Perm, children ...Node) Node {
	return Node{Name: name, Kind: types.KindDir, Owner: owner, Group: group, Perm: perm, Children: children}
}

// File builds a file node.
func File(name string, owner types.UserID, group types.GroupID, perm types.Perm, data []byte) Node {
	return Node{Name: name, Kind: types.KindFile, Owner: owner, Group: group, Perm: perm, Data: data}
}

// Stats summarizes a migration.
type Stats struct {
	Dirs        int
	Files       int
	Bytes       int64
	Objects     int // blobs stored at the SSP
	SplitPoints int
}

// uploader accumulates KVs and flushes them in size-bounded batches.
type uploader struct {
	store   ssp.BlobStore
	pending []wire.KV
	bytes   int
	cap     int
	objects int
}

func (u *uploader) add(kvs ...wire.KV) error {
	for _, kv := range kvs {
		u.pending = append(u.pending, kv)
		u.bytes += len(kv.Val)
		u.objects++
		if u.bytes >= u.cap {
			if err := u.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (u *uploader) flush() error {
	if len(u.pending) == 0 {
		return nil
	}
	if err := u.store.BatchPut(u.pending); err != nil {
		return fmt.Errorf("migrate: upload batch: %w", err)
	}
	u.pending = u.pending[:0]
	u.bytes = 0
	return nil
}

// Bootstrap creates an empty filesystem: the namespace root with its CAP
// variants and table views, plus a sealed superblock per registered user.
func Bootstrap(opts Options) error {
	opts.defaults()
	_, err := MigrateTree(opts, Node{
		Kind:  types.KindDir,
		Owner: opts.RootOwner,
		Group: opts.RootGroup,
		Perm:  opts.RootPerm,
	})
	return err
}

// MigrateTree encrypts and uploads a whole tree whose root becomes the
// filesystem namespace root. It returns migration statistics.
func MigrateTree(opts Options, root Node) (Stats, error) {
	opts.defaults()
	var st Stats
	if opts.Store == nil || opts.Registry == nil || opts.Layout == nil {
		return st, errors.New("migrate: incomplete options")
	}
	root.Kind = types.KindDir
	if root.Owner == "" {
		root.Owner = opts.RootOwner
	}
	if root.Group == "" {
		root.Group = opts.RootGroup
	}
	if root.Perm == 0 {
		root.Perm = opts.RootPerm
	}

	up := &uploader{store: opts.Store, cap: opts.BatchBytes}
	rootMeta, err := buildNode(&opts, up, &st, root, types.RootInode)
	if err != nil {
		return st, err
	}
	sbs, err := layout.BuildSuperblockKVs(opts.Layout, opts.Registry, opts.FSID, rootMeta)
	if err != nil {
		return st, err
	}
	if err := up.add(sbs...); err != nil {
		return st, err
	}
	if err := up.flush(); err != nil {
		return st, err
	}
	st.Objects = up.objects
	return st, nil
}

// buildNode recursively encrypts node and its subtree, streaming blobs
// through the uploader, and returns the node's full metadata.
func buildNode(opts *Options, up *uploader, st *Stats, n Node, ino types.Inode) (*meta.Metadata, error) {
	if n.Perm == 0 {
		if n.Kind == types.KindDir {
			n.Perm = 0o755
		} else {
			n.Perm = 0o644
		}
	}
	if err := cap.ValidatePerm(n.Kind, n.Perm); err != nil {
		return nil, fmt.Errorf("migrate: %q: %w", n.Name, err)
	}
	if n.Owner == "" {
		n.Owner = opts.RootOwner
	}
	if ino == 0 {
		ino = types.NewInode()
	}
	m := &meta.Metadata{
		Attr: meta.Attr{
			Inode: ino,
			Kind:  n.Kind,
			Owner: n.Owner,
			Group: n.Group,
			Perm:  n.Perm,
			Size:  uint64(len(n.Data)),
			MTime: time.Now().UnixNano(),
		},
		Keys: opts.Layout.NewKeys(nil),
	}

	switch n.Kind {
	case types.KindFile:
		st.Files++
		st.Bytes += int64(len(n.Data))
		if err := up.add(layout.BuildFileKVs(opts.Layout, m, n.Data, opts.BlockSize, m.Attr.MTime)...); err != nil {
			return nil, err
		}
	case types.KindDir:
		st.Dirs++
		tables := layout.NewTables(opts.Layout, m.Attr)
		seen := make(map[string]bool, len(n.Children))
		for _, child := range n.Children {
			if child.Name == "" || seen[child.Name] {
				return nil, fmt.Errorf("migrate: bad or duplicate child name %q", child.Name)
			}
			seen[child.Name] = true
			cm, err := buildNode(opts, up, st, child, 0)
			if err != nil {
				return nil, err
			}
			grants, err := layout.BuildRows(opts.Layout, m, tables, child.Name, cm)
			if err != nil {
				return nil, err
			}
			if len(grants) > 0 {
				st.SplitPoints++
				if err := up.add(grants...); err != nil {
					return nil, err
				}
			}
		}
		tkvs, err := layout.SealTables(opts.Layout, nil, m, tables)
		if err != nil {
			return nil, err
		}
		if err := up.add(tkvs...); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("migrate: %q: unknown kind", n.Name)
	}

	mkvs, err := opts.Layout.SealMeta(nil, m, opts.Layout.Variants(m.Attr))
	if err != nil {
		return nil, err
	}
	return m, up.add(mkvs...)
}

// SanitizePerm maps an arbitrary *nix permission onto the nearest setting
// supported by the CAP model (paper §III): unsupported triplets lose the
// offending bits, failing closed.
func SanitizePerm(kind types.ObjKind, p types.Perm) types.Perm {
	fix := func(t types.Triplet) types.Triplet {
		if _, err := cap.For(kind, t); err == nil {
			return t
		}
		if kind == types.KindDir {
			// -wx → --x: keep traversal, drop the unenforceable write.
			return t &^ types.TripletWrite
		}
		// Files: write-only and exec-only collapse to no access.
		return 0
	}
	return types.Perm(0).
		WithOwner(fix(p.Owner())).
		WithGroup(fix(p.Group())).
		WithOther(fix(p.Other()))
}

// FromLocalDir builds a migration tree from a local directory, assigning
// every object to the given owner and group and sanitizing permissions.
// This is the transition path for existing storage (paper §I: "existing
// data is transferred to the SSP site").
func FromLocalDir(dir string, owner types.UserID, group types.GroupID) (Node, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return Node{}, fmt.Errorf("migrate: %w", err)
	}
	if !info.IsDir() {
		return Node{}, fmt.Errorf("migrate: %q: %w", dir, types.ErrNotDir)
	}
	return localNode(dir, info, owner, group)
}

func localNode(path string, info fs.FileInfo, owner types.UserID, group types.GroupID) (Node, error) {
	perm := types.Perm(info.Mode().Perm()) & types.PermMask
	if info.IsDir() {
		n := Dir(info.Name(), owner, group, SanitizePerm(types.KindDir, perm))
		entries, err := os.ReadDir(path)
		if err != nil {
			return Node{}, fmt.Errorf("migrate: read %q: %w", path, err)
		}
		for _, e := range entries {
			ci, err := e.Info()
			if err != nil {
				return Node{}, fmt.Errorf("migrate: stat %q: %w", e.Name(), err)
			}
			if !ci.Mode().IsRegular() && !ci.IsDir() {
				continue // symlinks and specials are out of scope
			}
			child, err := localNode(filepath.Join(path, e.Name()), ci, owner, group)
			if err != nil {
				return Node{}, err
			}
			n.Children = append(n.Children, child)
		}
		return n, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Node{}, fmt.Errorf("migrate: read %q: %w", path, err)
	}
	return File(info.Name(), owner, group, SanitizePerm(types.KindFile, perm), data), nil
}
