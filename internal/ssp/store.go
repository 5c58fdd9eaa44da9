// Package ssp implements the Storage Service Provider: the untrusted
// data-serving component of Sharoes.
//
// Per the paper (§IV), "there is no computation involved on the data at the
// SSP and it simply maintains a large hashtable for encrypted metadata
// objects and encrypted data blocks, both indexed by the inode numbers and
// either hash of user/group ID (Scheme-1) or CAP ID (Scheme-2)". This
// package provides that hashtable (in-memory and on-disk backends), a TCP
// server speaking the wire protocol, a blob-level client, and a fault
// injector that models a malicious SSP for the integrity test suite.
package ssp

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// Stats summarizes what the SSP is storing; used by the Scheme-1 vs
// Scheme-2 storage-overhead experiment.
type Stats struct {
	Objects int64
	Bytes   int64
	PerNS   map[wire.NS]int64 // object count per namespace
}

// BlobStore is the storage abstraction shared by local backends and the
// remote client: everything the Sharoes filesystem needs from an SSP.
// Get returns wire.ErrNotFound for missing keys.
type BlobStore interface {
	Get(ns wire.NS, key string) ([]byte, error)
	Put(ns wire.NS, key string, val []byte) error
	Delete(ns wire.NS, key string) error
	List(ns wire.NS, prefix string) ([]wire.KV, error)
	BatchGet(items []wire.KV) ([]wire.KV, error)
	BatchPut(items []wire.KV) error
	Stats() (Stats, error)
}

// ListUnder is st.List(ns, prefix) for a client that acts on the listed
// keys. A key outside prefix is the SSP (or one shard behind a router)
// answering a different question than the one put to it, and is refused
// as tampering before the caller deletes or parses by it.
func ListUnder(st BlobStore, ns wire.NS, prefix string) ([]wire.KV, error) {
	items, err := st.List(ns, prefix)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if !strings.HasPrefix(it.Key, prefix) {
			return nil, fmt.Errorf("%w: listed %s key %q is not under %q", types.ErrTampered, ns, it.Key, prefix)
		}
	}
	return items, nil
}

// ViewStore is the optional borrowed-read extension of BlobStore. The
// *View methods return values that alias the store's internal memory
// instead of copying — for callers (the SSP server handler) that only
// serialize the value onto the wire and drop it.
//
// Aliasing contract: returned slices are stable snapshots. The store
// must never mutate a stored value in place — updates must replace the
// slice (MemStore's Put/BatchPut always insert fresh copies), so a view
// taken before an overwrite keeps reading the old bytes, never a torn
// mix. Callers must not write through a view; views stay readable
// indefinitely, but holding large ones pins dead values in memory, so
// serialize and drop promptly.
type ViewStore interface {
	GetView(ns wire.NS, key string) ([]byte, error)
	ListView(ns wire.NS, prefix string) ([]wire.KV, error)
	BatchGetView(items []wire.KV) ([]wire.KV, error)
}

// Sender is the optional pipelined-write extension of BlobStore, for a
// store that can put a batch on the wire without waiting for its reply:
// SendBatch returns once the batch is queued, and the channel it returns
// yields the reply's error exactly once. The store gives no ordering
// between batches, or between a batch and a later read, that are in
// flight together (the SSP dispatches one connection's requests
// concurrently): a caller that needs one waits for the earlier reply
// first (docs/TRANSPORT.md §6).
type Sender interface {
	SendBatch(items []wire.KV) <-chan error
}

// MemStore is the in-memory backend: a mutex-guarded hashtable, exactly the
// paper's description of the SSP server.
type MemStore struct {
	mu sync.RWMutex
	m  map[wire.NS]map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[wire.NS]map[string][]byte)}
}

// Get implements BlobStore.
func (s *MemStore) Get(ns wire.NS, key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	val, ok := s.m[ns][key]
	if !ok {
		return nil, wire.ErrNotFound
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, nil
}

// GetView implements ViewStore: like Get but the returned slice aliases
// the store's copy of the value. Safe under the ViewStore contract
// because Put/BatchPut replace value slices and never write into them.
func (s *MemStore) GetView(ns wire.NS, key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	val, ok := s.m[ns][key]
	if !ok {
		return nil, wire.ErrNotFound
	}
	return val, nil
}

// Put implements BlobStore.
func (s *MemStore) Put(ns wire.NS, key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nsm, ok := s.m[ns]
	if !ok {
		nsm = make(map[string][]byte)
		s.m[ns] = nsm
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	nsm[key] = cp
	return nil
}

// Delete implements BlobStore. Deleting a missing key is not an error,
// matching filesystem unlink-after-crash idempotence needs.
func (s *MemStore) Delete(ns wire.NS, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m[ns], key)
	return nil
}

// List implements BlobStore; results are sorted by key.
func (s *MemStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []wire.KV
	for k, v := range s.m[ns] {
		if strings.HasPrefix(k, prefix) {
			cp := make([]byte, len(v))
			copy(cp, v)
			out = append(out, wire.KV{NS: ns, Key: k, Val: cp})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ListView implements ViewStore: like List but the item Vals alias store
// memory under the ViewStore contract.
func (s *MemStore) ListView(ns wire.NS, prefix string) ([]wire.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []wire.KV
	for k, v := range s.m[ns] {
		if strings.HasPrefix(k, prefix) {
			out = append(out, wire.KV{NS: ns, Key: k, Val: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// BatchGet implements BlobStore; missing keys are omitted from the result.
func (s *MemStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]wire.KV, 0, len(items))
	for _, it := range items {
		if v, ok := s.m[it.NS][it.Key]; ok {
			cp := make([]byte, len(v))
			copy(cp, v)
			out = append(out, wire.KV{NS: it.NS, Key: it.Key, Val: cp})
		}
	}
	return out, nil
}

// BatchGetView implements ViewStore: like BatchGet but the item Vals
// alias store memory under the ViewStore contract.
func (s *MemStore) BatchGetView(items []wire.KV) ([]wire.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]wire.KV, 0, len(items))
	for _, it := range items {
		if v, ok := s.m[it.NS][it.Key]; ok {
			out = append(out, wire.KV{NS: it.NS, Key: it.Key, Val: v})
		}
	}
	return out, nil
}

// BatchPut implements BlobStore; entries with Delete set are removed.
func (s *MemStore) BatchPut(items []wire.KV) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range items {
		if it.Delete {
			delete(s.m[it.NS], it.Key)
			continue
		}
		nsm, ok := s.m[it.NS]
		if !ok {
			nsm = make(map[string][]byte)
			s.m[it.NS] = nsm
		}
		cp := make([]byte, len(it.Val))
		copy(cp, it.Val)
		nsm[it.Key] = cp
	}
	return nil
}

// Stats implements BlobStore.
func (s *MemStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{PerNS: make(map[wire.NS]int64)}
	for ns, nsm := range s.m {
		for _, v := range nsm {
			st.Objects++
			st.Bytes += int64(len(v))
			st.PerNS[ns]++
		}
	}
	return st, nil
}

// DiskStore is a filesystem-backed store: one file per blob under
// root/<ns>/<hex(key)>. It gives the SSP durability across restarts; the
// benchmarks use MemStore since the paper's SSP cost model is
// network-bound, not disk-bound.
type DiskStore struct {
	root string
	mu   sync.RWMutex
}

// NewDiskStore creates (if needed) and opens a store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ssp: create store root: %w", err)
	}
	return &DiskStore{root: dir}, nil
}

func (s *DiskStore) nsDir(ns wire.NS) string {
	return filepath.Join(s.root, fmt.Sprintf("ns%d", uint8(ns)))
}

func (s *DiskStore) path(ns wire.NS, key string) string {
	return filepath.Join(s.nsDir(ns), hex.EncodeToString([]byte(key)))
}

// Get implements BlobStore.
func (s *DiskStore) Get(ns wire.NS, key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := os.ReadFile(s.path(ns, key))
	if os.IsNotExist(err) {
		return nil, wire.ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("ssp: read blob: %w", err)
	}
	return b, nil
}

// Put implements BlobStore; the write is atomic via rename.
func (s *DiskStore) Put(ns wire.NS, key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(ns, key, val)
}

func (s *DiskStore) putLocked(ns wire.NS, key string, val []byte) error {
	dir := s.nsDir(ns)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ssp: create ns dir: %w", err)
	}
	dst := s.path(ns, key)
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, val, 0o644); err != nil {
		return fmt.Errorf("ssp: write blob: %w", err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		return fmt.Errorf("ssp: commit blob: %w", err)
	}
	return nil
}

// Delete implements BlobStore.
func (s *DiskStore) Delete(ns wire.NS, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(ns, key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ssp: delete blob: %w", err)
	}
	return nil
}

// List implements BlobStore.
func (s *DiskStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.nsDir(ns))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ssp: list ns: %w", err)
	}
	var out []wire.KV
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		keyBytes, err := hex.DecodeString(e.Name())
		if err != nil {
			continue
		}
		key := string(keyBytes)
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		val, err := os.ReadFile(filepath.Join(s.nsDir(ns), e.Name()))
		if err != nil {
			return nil, fmt.Errorf("ssp: read blob during list: %w", err)
		}
		out = append(out, wire.KV{NS: ns, Key: key, Val: val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// BatchGet implements BlobStore.
func (s *DiskStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	out := make([]wire.KV, 0, len(items))
	for _, it := range items {
		v, err := s.Get(it.NS, it.Key)
		if err == wire.ErrNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, wire.KV{NS: it.NS, Key: it.Key, Val: v})
	}
	return out, nil
}

// BatchPut implements BlobStore.
func (s *DiskStore) BatchPut(items []wire.KV) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range items {
		if it.Delete {
			if err := os.Remove(s.path(it.NS, it.Key)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("ssp: batch delete: %w", err)
			}
			continue
		}
		if err := s.putLocked(it.NS, it.Key, it.Val); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements BlobStore.
func (s *DiskStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{PerNS: make(map[wire.NS]int64)}
	nsDirs, err := os.ReadDir(s.root)
	if err != nil {
		return st, fmt.Errorf("ssp: stats: %w", err)
	}
	for _, d := range nsDirs {
		var nsNum uint8
		if _, err := fmt.Sscanf(d.Name(), "ns%d", &nsNum); err != nil {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, d.Name()))
		if err != nil {
			return st, fmt.Errorf("ssp: stats: %w", err)
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil || f.IsDir() || strings.HasSuffix(f.Name(), ".tmp") {
				continue
			}
			st.Objects++
			st.Bytes += info.Size()
			st.PerNS[wire.NS(nsNum)]++
		}
	}
	return st, nil
}
