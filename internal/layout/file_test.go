package layout

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestSealFileKVs: for every block count around the worker pool's edges
// (none, one — sealed inline — two, sixteen, seventeen) and for a run
// that starts mid-file, the KVs come back in index order under the right
// keys — full blocks under their generation's block keys, a short last
// block under the file's tail key and no other — every block opens under
// its own (inode, generation, index) AAD and no other, a tail not under a
// block's AAD nor a block under a tail's, and the manifest is last.
func TestSealFileKVs(t *testing.T) {
	const bs = 64
	m := newFullMeta(77, types.KindFile, "alice", "eng", "640")
	m.Attr.DataGen = 5
	dvk := m.Keys.DSK.VerifyKey()
	for _, tc := range []struct {
		first uint32
		size  int
	}{{0, 0}, {0, 1}, {0, bs}, {0, bs + 1}, {0, 16 * bs}, {0, 16*bs + 3}, {9, 8*bs - 1}, {3, 1}, {3, 2 * bs}} {
		data := make([]byte, tc.size)
		for i := range data {
			data[i] = byte(i*7 + int(tc.first))
		}
		n := (tc.size + bs - 1) / bs
		man := meta.NewManifest(uint64(int(tc.first)*bs+tc.size), bs, 42)
		kvs := SealFileKVs(m, man, tc.first, data)
		if len(kvs) != n+1 {
			t.Fatalf("first=%d size=%d: %d KVs, want %d blocks + manifest", tc.first, tc.size, len(kvs), n)
		}
		var got []byte
		for i, kv := range kvs[:n] {
			idx := tc.first + uint32(i)
			key, aad, wrong := meta.BlockKey(77, 5, idx), meta.BlockAAD(77, 5, idx), meta.TailAAD(77, 5, idx)
			if tail := i == n-1 && tc.size%bs != 0; tail {
				key, aad, wrong = meta.TailKey(77), wrong, aad
			}
			if kv.NS != wire.NSData || kv.Key != key || kv.Delete {
				t.Errorf("first=%d size=%d: KV %d is %v %q, want %q", tc.first, tc.size, i, kv.NS, kv.Key, key)
			}
			pt, err := meta.OpenVerified(m.Keys.DEK, dvk, aad, kv.Val)
			if err != nil {
				t.Fatalf("first=%d size=%d: block %d: %v", tc.first, tc.size, idx, err)
			}
			got = append(got, pt...)
			if _, err := meta.OpenVerified(m.Keys.DEK, dvk, man.DataAAD(77, 5, idx+1), kv.Val); !errors.Is(err, types.ErrTampered) {
				t.Errorf("block %d opened at index %d: %v", idx, idx+1, err)
			}
			if _, err := meta.OpenVerified(m.Keys.DEK, dvk, wrong, kv.Val); !errors.Is(err, types.ErrTampered) {
				t.Errorf("block %d opened under the other kind's AAD: %v", idx, err)
			}
		}
		if !bytes.Equal(got, data) {
			t.Errorf("first=%d size=%d: blocks do not reassemble to the input", tc.first, tc.size)
		}
		last := kvs[n]
		if last.Key != meta.ManifestKey(77) {
			t.Errorf("last KV is %q, want the manifest", last.Key)
		}
		pt, err := meta.OpenVerified(m.Keys.DEK, dvk, meta.ManifestAAD(77, 5), last.Val)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := meta.DecodeManifest(pt); err != nil || *dec != *man {
			t.Errorf("manifest round trip: %+v, %v", dec, err)
		}
	}
}

// TestBuildFileKVsIsWholeFileSeal: the migration entry point is the same
// loop from block 0 with the manifest it derives.
func TestBuildFileKVsIsWholeFileSeal(t *testing.T) {
	m := newFullMeta(78, types.KindFile, "alice", "eng", "640")
	data := bytes.Repeat([]byte("x"), 200)
	kvs := BuildFileKVs(m, data, 64, 99)
	if len(kvs) != 5 {
		t.Fatalf("%d KVs, want 4 blocks + manifest", len(kvs))
	}
	pt, err := meta.OpenVerified(m.Keys.DEK, m.Keys.DVK, meta.ManifestAAD(78, m.Attr.DataGen), kvs[4].Val)
	if err != nil {
		t.Fatal(err)
	}
	want := meta.Manifest{Size: 200, BlockSize: 64, NBlocks: 4, MTime: 99}
	if man, err := meta.DecodeManifest(pt); err != nil || *man != want {
		t.Errorf("manifest %+v, %v; want %+v", man, err, want)
	}
}

// TestRunParallelCoversEveryIndexOnce, including n = 0 and n = 1 (which
// must run on the calling goroutine: single-block files spawn nothing).
func TestRunParallelCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 17, 100} {
		hits := make([]atomic.Int32, n)
		RunParallel(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
	// Inline means a panic in fn surfaces on this goroutine, where the
	// caller's recover sees it.
	defer func() {
		if recover() == nil {
			t.Error("n=1 did not run fn on the calling goroutine")
		}
	}()
	RunParallel(1, func(int) { panic("inline") })
}
