package layout

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/wire"
)

// DeleteMetaKVs returns delete markers for every metadata blob of an
// object, one per storage key its copies are stored under.
func DeleteMetaKVs(eng Engine, attr meta.Attr) []wire.KV {
	var out []wire.KV
	for _, v := range eng.Variants(attr) {
		key := eng.MetaKey(attr.Inode, v.ID)
		if !slices.ContainsFunc(out, func(kv wire.KV) bool { return kv.Key == key }) {
			out = append(out, wire.KV{NS: wire.NSMeta, Key: key, Delete: true})
		}
	}
	return out
}

// BuildTableKVs seals every CAP view of a directory table, under one
// signature, and returns the key-value pairs to store. Every variant
// stores a view — variants whose CAP grants no table access get the full
// shape sealed under a derived key their holders never receive, so
// relaxing permissions later never requires reconstructing other owners'
// child keys.
func BuildTableKVs(eng Engine, sw Stopwatch, dirFull *meta.Metadata, table *meta.DirTable) ([]wire.KV, error) {
	variants := eng.Variants(dirFull.Attr)
	tables := make(map[string]*meta.DirTable, len(variants))
	for _, v := range variants {
		tables[v.ID] = table
	}
	return SealTables(eng, sw, dirFull, tables)
}

// DeleteTableKVs returns delete markers for every table view of a
// directory.
func DeleteTableKVs(eng Engine, attr meta.Attr) []wire.KV {
	variants := eng.Variants(attr)
	out := make([]wire.KV, 0, len(variants))
	for _, v := range variants {
		out = append(out, wire.KV{NS: wire.NSData, Key: meta.TableKey(attr.Inode, v.ID), Delete: true})
	}
	return out
}

// BuildRows computes the row for child in every parent variant's table and
// rewrites the tables in place. tables maps parent variant ID → decoded
// table; the caller fetched them with the parent's DataSeed-derived keys.
// Returned KVs are the split grants to store alongside.
func BuildRows(eng Engine, parent *meta.Metadata, tables map[string]*meta.DirTable, name string, child *meta.Metadata) ([]wire.KV, error) {
	var grants []wire.KV
	for _, pv := range eng.Variants(parent.Attr) {
		tbl, ok := tables[pv.ID]
		if !ok {
			continue
		}
		entry, kvs, err := eng.Row(parent.Attr, pv, child)
		if err != nil {
			return nil, err
		}
		entry.Name = name
		// Insert or replace.
		if _, lookupErr := tbl.Lookup(name); lookupErr == nil {
			if err := tbl.Replace(entry); err != nil {
				return nil, err
			}
		} else if err := tbl.Insert(entry); err != nil {
			return nil, err
		}
		grants = append(grants, kvs...)
	}
	return dedupeKVs(grants), nil
}

// dedupeKVs removes duplicate (NS, Key) pairs, keeping the last write.
// Split grants for the same child/user pair may be emitted by several
// parent variants; they are identical in content.
func dedupeKVs(kvs []wire.KV) []wire.KV {
	if len(kvs) <= 1 {
		return kvs
	}
	idx := make(map[string]int, len(kvs))
	out := kvs[:0]
	for _, kv := range kvs {
		k := fmt.Sprintf("%d/%s", kv.NS, kv.Key)
		if i, ok := idx[k]; ok {
			out[i] = kv
			continue
		}
		idx[k] = len(out)
		out = append(out, kv)
	}
	return out
}

// SealTables seals per-variant directory tables (unlike BuildTableKVs,
// which replicates one table into every view — only correct for tables
// whose rows are variant-independent, such as empty ones) as one group
// (Sealer.SealViews), in variant order. Variants tables lacks are left
// alone.
func SealTables(eng Engine, sw Stopwatch, dirFull *meta.Metadata, tables map[string]*meta.DirTable) ([]wire.KV, error) {
	var specs []cap.ViewSpec
	for _, v := range eng.Variants(dirFull.Attr) {
		if tbl, ok := tables[v.ID]; ok {
			specs = append(specs, cap.ViewSpec{Table: tbl, ID: v.Cap, Variant: v.ID})
		}
	}
	blobs, err := eng.SealViews(sw, dirFull, specs)
	if err != nil {
		return nil, fmt.Errorf("layout: seal tables of %d: %w", dirFull.Attr.Inode, err)
	}
	out := make([]wire.KV, len(specs))
	for i, v := range specs {
		out[i] = wire.KV{NS: wire.NSData, Key: meta.TableKey(dirFull.Attr.Inode, v.Variant), Val: blobs[i]}
	}
	return out, nil
}

// NewTables returns an empty per-variant table map for a directory.
func NewTables(eng Engine, attr meta.Attr) map[string]*meta.DirTable {
	out := make(map[string]*meta.DirTable)
	for _, v := range eng.Variants(attr) {
		out[v.ID] = &meta.DirTable{}
	}
	return out
}

// BuildFileKVs seals a file's whole content — blocks plus manifest —
// under the file's data keys.
func BuildFileKVs(sl Sealer, m *meta.Metadata, data []byte, blockSize uint32, mtime int64) []wire.KV {
	return sl.SealFile(nil, m, meta.NewManifest(uint64(len(data)), blockSize, mtime), 0, data)
}

// SealFileKVs seals data as the blocks of a file from block first on —
// man.BlockSize bytes each, the last one possibly short — and then man
// itself, under the file's data keys. It returns the block KVs in index
// order followed by the manifest KV. This is the one block-sealing loop:
// whole-file writes and migration pass first = 0 and the whole content,
// an append passes its first dirty block and the reassembled tail, with
// the digests of the blocks before it already copied into man.
//
// Where each block goes is man's rule (meta.Manifest.DataKey): full
// blocks under their generation's block keys, a short last block under
// the file's tail key. Every block has its own nonce and AAD (inode,
// generation, index) and is sealed without a signature, so blocks are
// sealed across the worker pool, each writing only its own digest into
// man.Digests; a single block is sealed inline. The manifest is sealed
// and signed last, once every digest is in: it is the one signature of
// the write.
func SealFileKVs(m *meta.Metadata, man *meta.Manifest, first uint32, data []byte) []wire.KV {
	return SealFile(m, man, first, data,
		func(aad, plain []byte) ([]byte, [sha256.Size]byte) { return meta.SealBlock(m.Keys.DEK, aad, plain) },
		func(aad, plain []byte) []byte { return meta.SealSigned(m.Keys.DEK, m.Keys.DSK, aad, plain) })
}

// SealFile is SealFileKVs with the seals of a block and of the manifest
// given, each under the file's data keys: the one block-sealing loop,
// whichever system's seals it runs. block returns each sealed block and
// the digest the manifest records for it.
func SealFile(m *meta.Metadata, man *meta.Manifest, first uint32, data []byte,
	block func(aad, plain []byte) ([]byte, [sha256.Size]byte), manifest func(aad, plain []byte) []byte) []wire.KV {
	ino, gen := m.Attr.Inode, m.Attr.DataGen
	bs := int(man.BlockSize)
	n := (len(data) + bs - 1) / bs
	kvs := make([]wire.KV, n+1)
	RunParallel(n, func(i int) {
		lo, hi := i*bs, (i+1)*bs
		if hi > len(data) {
			hi = len(data)
		}
		idx := first + uint32(i)
		sealed, digest := block(man.DataAAD(ino, gen, idx), data[lo:hi])
		man.Digests[idx] = digest
		kvs[i] = wire.KV{NS: wire.NSData, Key: man.DataKey(ino, gen, idx), Val: sealed}
	})
	sealedMan := manifest(meta.ManifestAAD(ino, gen), man.Encode())
	kvs[n] = wire.KV{NS: wire.NSData, Key: meta.ManifestKey(ino), Val: sealedMan}
	return kvs
}

// BuildSuperblockKVs seals one superblock per registered user for the
// namespace root (paper §III-C: "we store E_PKi(Superblock) for all
// authorized users of the filesystem").
func BuildSuperblockKVs(eng Engine, reg *keys.Registry, fsid string, rootMeta *meta.Metadata) ([]wire.KV, error) {
	users := reg.Users()
	kvs := make([]wire.KV, 0, len(users))
	for _, uid := range users {
		v := eng.UserVariant(uid, rootMeta.Attr)
		sb := &meta.Superblock{
			FSID:        fsid,
			RootInode:   rootMeta.Attr.Inode,
			RootVariant: v.ID,
			RootMEK:     v.MEK(rootMeta),
			RootMVK:     rootMeta.Keys.MSK.VerifyKey(),
		}
		pub, err := reg.UserKey(uid)
		if err != nil {
			return nil, err
		}
		sealed, err := eng.SealSuperblock(sb, pub)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, wire.KV{NS: wire.NSSuper, Key: meta.SuperKey(fsid, keys.UserPrincipal(uid).String()), Val: sealed})
	}
	return kvs, nil
}
