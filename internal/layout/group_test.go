package layout

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// TestViewGroupBytes reports what one signature per directory update
// costs in bytes as the variant count grows, on the traffic the benchmark
// does not run: Scheme-2 with 0, 3 and 9 ACL grantees (3, 6 and 12 views
// of a 10-entry table). "Lone" seals each view with a signature of its
// own (cap.SealTableView), "group" seals them all under one
// (BuildTableKVs). A group member carries its n−1 siblings' digests, so
// one view read grows by 32·(n−1) B and one update by 32·n·(n−1) B; a
// Merkle path would carry 32·⌈log₂ n⌉ B per view instead. Run with -v
// for the table (EXPERIMENTS.md E2, view-group addendum).
func TestViewGroupBytes(t *testing.T) {
	u := testUniverse(t)
	eng := NewScheme2(u.reg)
	table := &meta.DirTable{}
	for i := 0; i < 10; i++ {
		_, vk := sharocrypto.NewSigningPair()
		e := meta.DirEntry{Name: fmt.Sprintf("file-%02d.txt", i), Inode: types.Inode(100 + i), Variant: "o", MEK: sharocrypto.NewSymKey(), MVK: vk}
		if err := table.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%8s %12s %12s %12s %12s %12s %12s", "views", "update lone", "update group", "read lone", "read group", "flat sibs", "merkle path")
	for _, grantees := range []int{0, 3, 9} {
		dir := newFullMeta(10, types.KindDir, "alice", "eng", "750")
		for g := 0; g < grantees; g++ {
			dir.Attr.SetACL(types.UserID(fmt.Sprintf("grantee%d", g)), types.TripletRead|types.TripletExec)
		}
		variants := eng.Variants(dir.Attr)
		n := len(variants)
		lone := map[string]int{}
		loneTotal := 0
		for _, v := range variants {
			blob, err := cap.SealTableView(table, dir, v.Cap, v.ID)
			if err != nil {
				t.Fatal(err)
			}
			lone[v.ID] = len(blob)
			loneTotal += len(blob)
		}
		kvs, err := BuildTableKVs(eng, nil, dir, table)
		if err != nil {
			t.Fatal(err)
		}
		group, groupTotal := map[string]int{}, 0
		for i, kv := range kvs {
			group[variants[i].ID] = len(kv.Val)
			groupTotal += len(kv.Val)
		}
		for _, v := range variants {
			if got, want := group[v.ID]-lone[v.ID], 32*(n-1); got != want {
				t.Errorf("%d views: view %s grew %d B, want %d", n, v.ID, got, want)
			}
		}
		if got, want := groupTotal-loneTotal, 32*n*(n-1); got != want {
			t.Errorf("%d views: update grew %d B, want %d", n, got, want)
		}
		// The owner's view opens with the directory's own table key.
		if _, err := cap.OpenView("o", cap.TableKey(dir, "o"), dir.Keys.DVK, 10, kvs[0].Val); err != nil {
			t.Errorf("%d views: owner view: %v", n, err)
		}
		merkle := 32 * bits.Len(uint(n-1))
		t.Logf("%8d %12d %12d %12d %12d %12d %12d", n, loneTotal, groupTotal, lone["o"], group["o"], 32*(n-1), merkle)
	}
}
