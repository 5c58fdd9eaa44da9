package workload

import (
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/wire"
)

// shardOpts is the acceptance configuration: three shards, R=2, W=1 —
// every blob lives on two backends and a put acks after the first.
func shardOpts() Options {
	return Options{Profile: netsim.LAN, CacheBytes: -1,
		Shards: 3, Replicas: 2, WriteQuorum: 1}
}

// A sharded build must spread replicated state across every backend and
// still serve ordinary filesystem traffic.
func TestBuildShardedSystem(t *testing.T) {
	opts := shardOpts()
	opts.WriteQuorum = 2 // W=R: every backing deterministic before asserting
	sys, err := Build(SysSharoes, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Shard == nil || len(sys.Backings) != 3 || len(sys.Faults) != 3 {
		t.Fatalf("sharded build: shard=%v backings=%d faults=%d",
			sys.Shard != nil, len(sys.Backings), len(sys.Faults))
	}
	if err := sys.FS.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := sys.FS.WriteFile("/d/f"+string(rune('a'+i)), []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := sys.FS.ReadFile("/d/fa"); err != nil || got[0] != 0 {
		t.Fatalf("read back = %v, %v", got, err)
	}
	var total int64
	for i, bk := range sys.Backings {
		st, err := bk.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Objects == 0 {
			t.Errorf("backing %d holds no objects; ring did not spread", i)
		}
		total += st.Objects
	}
	// R=2 means the object population is strictly larger than any single
	// backend could hold alone.
	max := int64(0)
	for _, bk := range sys.Backings {
		st, _ := bk.Stats()
		if st.Objects > max {
			max = st.Objects
		}
	}
	if total <= max {
		t.Fatalf("no replication visible: total %d, largest backend %d", total, max)
	}
}

// Figure 9 under single-shard loss: shard s0 refuses writes and drops
// reads after bootstrap, and the parallel write-behind Create-and-List
// must still complete correctly off the surviving replicas (W=1-of-2).
func TestShardedCreateListSurvivesShardLoss(t *testing.T) {
	opts := shardOpts()
	opts.Parallel = 2
	opts.WriteBehind = true
	opts.ShardFault = "loss"
	sys, err := Build(SysSharoes, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	cfg := PaperCreateList.Scaled(25) // 20 files over 1 dir
	res, err := CreateListN(sys, cfg, 2)
	if err != nil {
		t.Fatalf("create-and-list with a lost shard: %v", err)
	}
	if int(res.CreateLat.Count) != cfg.Files {
		t.Fatalf("created %d files, want %d", res.CreateLat.Count, cfg.Files)
	}
	if int(res.ListLat.Count) != cfg.Files {
		t.Fatalf("listed %d files, want %d", res.ListLat.Count, cfg.Files)
	}
	if sys.Faults[0].Triggered() == 0 {
		t.Error("the lost shard was never hit; the fault scenario did not bite")
	}
	// The row must convert into a valid sharded report.
	rep := Fig9Report([]Fig9Row{{System: SysSharoes, Result: res}}, "lan", 25, "scheme2")
	rep.Parallel, rep.WriteBehind = 2, true
	rep.Shards, rep.Replicas, rep.WriteQuorum, rep.ShardFault = 3, 2, 1, "loss"
	if err := ValidateReport(rep); err != nil {
		t.Fatalf("sharded fig9 report invalid: %v", err)
	}
}

// Figure 10 under a straggling shard: every read on s0 is delayed far
// past the hedge threshold. Postmark must complete, and a single-key read
// of a blob the straggler is primary for must be won by the hedge to its
// replica. (The filesystem's own reads ride BatchGets, which the router
// does not hedge — a batch the straggler serves waits for it — so the run
// itself launches hedges only while mounting.)
func TestShardedPostmarkHedgesPastSlowShard(t *testing.T) {
	opts := shardOpts()
	opts.Parallel = 2
	opts.WriteBehind = true
	opts.ShardFault = "slow"
	sys, err := Build(SysSharoes, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	cfg := PaperPostmark.Scaled(25)
	res, err := PostmarkN(sys, cfg, 2)
	if err != nil {
		t.Fatalf("postmark with a slow shard: %v", err)
	}
	if res.Transactions == 0 {
		t.Fatal("no transactions completed")
	}
	if sys.Faults[0].Triggered() == 0 {
		t.Error("the slow shard was never hit; the fault scenario did not bite")
	}
	items, err := sys.Backings[0].List(wire.NSMeta, "")
	if err != nil {
		t.Fatal(err)
	}
	ring, victim := sys.Shard.Ring(), ""
	for _, it := range items {
		if ring.Owner(it.NS, it.Key) == 0 {
			victim = it.Key
			break
		}
	}
	if victim == "" {
		t.Fatal("the straggler is primary for no metadata blob")
	}
	hedged, won := sys.Metrics.Counter("shard.get.hedged"), sys.Metrics.Counter("shard.get.hedge_won")
	if won.Value() > hedged.Value() {
		t.Errorf("%d hedges won of %d launched", won.Value(), hedged.Value())
	}
	hedgedBefore, wonBefore := hedged.Value(), won.Value()
	start := time.Now()
	if _, err := sys.Shard.Get(wire.NSMeta, victim); err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	if e := time.Since(start); e >= ShardFaultDelay {
		t.Errorf("read took %v: it waited out the %v straggler", e, ShardFaultDelay)
	}
	if hedged.Value() != hedgedBefore+1 || won.Value() != wonBefore+1 {
		t.Errorf("hedged %d→%d, hedge_won %d→%d; want one hedge launched and won",
			hedgedBefore, hedged.Value(), wonBefore, won.Value())
	}
	rep := Fig10Report([]Fig10Row{{System: SysSharoes, CachePct: 100,
		Result: res, Stats: sys.Rec.Snapshot()}}, "lan", 25, "scheme2")
	rep.Parallel, rep.WriteBehind = 2, true
	rep.Shards, rep.Replicas, rep.WriteQuorum, rep.ShardFault = 3, 2, 1, "slow"
	if err := ValidateReport(rep); err != nil {
		t.Fatalf("sharded fig10 report invalid: %v", err)
	}
}

// A baseline system must build and run sharded too — the shard layer
// sits below the metadata schemes, so every system gains it for free.
func TestShardedBaselineRuns(t *testing.T) {
	opts := shardOpts()
	sys, err := Build(SysNoEncMDD, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := CreateList(sys.FS, sys.Rec, PaperCreateList.Scaled(25)); err != nil {
		t.Fatal(err)
	}
}

// Misconfigured shard options must fail the build, not silently run the
// single-SSP shape.
func TestShardedBuildValidation(t *testing.T) {
	bad := shardOpts()
	bad.Shards = 1
	bad.ShardFault = "loss"
	if _, err := Build(SysSharoes, bad); err == nil {
		t.Error("shard fault on a single-SSP build did not error")
	}
	bad = shardOpts()
	bad.ShardFault = "flaky"
	if _, err := Build(SysSharoes, bad); err == nil {
		t.Error("unknown shard fault scenario did not error")
	}
}
