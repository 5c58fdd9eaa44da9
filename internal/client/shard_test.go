package client

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
)

// TestCreateListSurvivesShardLoss is Create-and-List over three shards
// (R=2, W=1) under write-behind, with shard s0 lost after bootstrap: it
// refuses every write and drops every read. Every file must still list
// and stat correctly off the surviving replicas.
func TestCreateListSurvivesShardLoss(t *testing.T) {
	fixture(t)
	faults := make([]*ssp.FaultStore, 3)
	bks := make([]shard.Backend, 3)
	for i := range faults {
		faults[i] = ssp.NewFaultStore(ssp.NewMemStore())
		bks[i] = shard.Backend{ID: fmt.Sprintf("s%d", i), Store: faults[i]}
	}

	// Bootstrap through a W=R ring so every replica holds the root before
	// the fault is armed.
	eng := layout.NewScheme2(fixReg)
	boot, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 2, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := migrate.Bootstrap(migrate.Options{Store: boot, Registry: fixReg, Layout: eng,
		FSID: "shardfs", RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755}); err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultWriteErr})
	faults[0].AddRule(ssp.FaultRule{Mode: ssp.FaultDrop})

	sh, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	wb := ssp.NewWriteBehind(sh, ssp.WriteBehindOptions{})
	defer wb.Close()
	s, err := Mount(Config{Store: wb, User: fixUser["alice"], Registry: fixReg,
		Layout: eng, FSID: "shardfs", CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const files, dirs = 20, 4
	for d := 0; d < dirs; d++ {
		if err := s.Mkdir(fmt.Sprintf("/d%d", d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string][]string) // dir → file names
	size := make(map[string]uint64)   // path → file size
	for f := 0; f < files; f++ {
		dir, name := fmt.Sprintf("/d%d", f%dirs), fmt.Sprintf("f%02d", f)
		path := dir + "/" + name
		if err := s.WriteFile(path, make([]byte, 10*f), 0o644); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		want[dir] = append(want[dir], name)
		size[path] = uint64(10 * f)
	}
	if err := wb.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}

	s.Refresh()
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/d%d", d)
		names, err := s.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		if !slices.Equal(names, want[dir]) {
			t.Fatalf("readdir %s = %v, want %v", dir, names, want[dir])
		}
		for _, name := range names {
			path := dir + "/" + name
			info, err := s.Stat(path)
			if err != nil {
				t.Fatalf("stat %s: %v", path, err)
			}
			if info.Size != size[path] {
				t.Errorf("stat %s: size %d, want %d", path, info.Size, size[path])
			}
		}
	}
	if faults[0].Triggered() == 0 {
		t.Error("the lost shard was never hit; the fault scenario did not bite")
	}
}
