package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/stats"
)

// fastOpts builds systems over an effectively instant link so harness
// tests validate plumbing, not timing.
func fastOpts() FigureOptions {
	return FigureOptions{
		Options: Options{Profile: netsim.LAN, CacheBytes: -1},
		Scale:   25,
	}
}

func TestBuildAllSystems(t *testing.T) {
	for _, kind := range AllSystems {
		sys, err := Build(kind, fastOpts().Options)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := sys.FS.Mkdir("/hello", 0o755); err != nil {
			t.Errorf("%v mkdir: %v", kind, err)
		}
		if err := sys.FS.WriteFile("/hello/w", []byte("x"), 0o644); err != nil {
			t.Errorf("%v write: %v", kind, err)
		}
		if got, err := sys.FS.ReadFile("/hello/w"); err != nil || string(got) != "x" {
			t.Errorf("%v read = %q, %v", kind, got, err)
		}
		if err := sys.Close(); err != nil {
			t.Errorf("%v close: %v", kind, err)
		}
	}
}

func TestCreateListRuns(t *testing.T) {
	for _, kind := range AllSystems {
		sys, err := Build(kind, fastOpts().Options)
		if err != nil {
			t.Fatal(err)
		}
		cfg := PaperCreateList.Scaled(25) // 20 files, 1 dir
		res, err := CreateList(sys.FS, sys.Rec, cfg)
		sys.Close()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Create <= 0 || res.List <= 0 {
			t.Errorf("%v: durations %v/%v", kind, res.Create, res.List)
		}
		if res.CreateStats.Ops == 0 {
			t.Errorf("%v: no ops recorded", kind)
		}
	}
}

// TestCryptoShareIsOfWallTime pins Figure 9's CRYPTO(C) and CRYPTO(L)
// to CRYPTO ÷ the phase's wall time: the untimed OTHER remainder is part
// of the denominator, and the share never reads above 100%.
func TestCryptoShareIsOfWallTime(t *testing.T) {
	r := CreateListResult{
		Create: 100 * time.Millisecond, List: 40 * time.Millisecond,
		CreateStats: stats.Snapshot{Network: 50 * time.Millisecond, Crypto: 10 * time.Millisecond},
		ListStats:   stats.Snapshot{Crypto: 80 * time.Millisecond}, // parallel sections overran the wall
	}
	if create, list := r.CryptoShares(); create != 0.1 || list != 1 {
		t.Errorf("CryptoShares = %v, %v; want 0.1 (crypto ÷ wall), 1 (capped)", create, list)
	}
	for _, kind := range []SystemKind{SysSharoes, SysPublic} {
		sys, err := Build(kind, fastOpts().Options)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CreateList(sys.FS, sys.Rec, PaperCreateList.Scaled(25))
		sys.Close()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		create, list := res.CryptoShares()
		for _, ph := range []struct {
			name  string
			share float64
			wall  time.Duration
			st    stats.Snapshot
		}{{"create", create, res.Create, res.CreateStats}, {"list", list, res.List, res.ListStats}} {
			if ph.share < 0 || ph.share > 1 {
				t.Errorf("%v %s: share %v outside [0, 1]", kind, ph.name, ph.share)
			}
			if ph.st.Network+ph.st.Crypto > ph.wall {
				continue // overran: capped above, not crypto ÷ wall
			}
			if want := float64(ph.st.Crypto) / float64(ph.wall); ph.share != want {
				t.Errorf("%v %s: share %v, want crypto ÷ wall = %v", kind, ph.name, ph.share, want)
			}
		}
	}
}

func TestPostmarkRuns(t *testing.T) {
	sys, err := Build(SysSharoes, fastOpts().Options)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := PaperPostmark.Scaled(25)
	res, err := Postmark(sys.FS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != cfg.Transactions {
		t.Errorf("transactions = %d, want %d", res.Transactions, cfg.Transactions)
	}
}

func TestPostmarkDeterministic(t *testing.T) {
	// Same seed ⇒ same operation sequence ⇒ same final file count.
	counts := make([]int, 2)
	for i := range counts {
		sys, err := Build(SysNoEncMDD, fastOpts().Options)
		if err != nil {
			t.Fatal(err)
		}
		cfg := PaperPostmark.Scaled(25)
		if _, err := Postmark(sys.FS, cfg); err != nil {
			t.Fatal(err)
		}
		names, err := sys.FS.ReadDir("/postmark/s00")
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = len(names)
		sys.Close()
	}
	if counts[0] != counts[1] {
		t.Errorf("postmark not deterministic: %v", counts)
	}
}

func TestAndrewRuns(t *testing.T) {
	sys, err := Build(SysSharoes, fastOpts().Options)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := Andrew(sys.FS, PaperAndrew.Scaled(10))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Phase {
		if p <= 0 {
			t.Errorf("phase %d duration %v", i+1, p)
		}
	}
	if res.Total() <= res.Phase[0] {
		t.Error("total not cumulative")
	}
	// The compile phase leaves objects and a binary behind.
	if _, err := sys.FS.Stat("/andrew/a.out"); err != nil {
		t.Errorf("a.out missing: %v", err)
	}
}

func TestOpCostsRuns(t *testing.T) {
	sys, err := Build(SysSharoes, fastOpts().Options)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := OpCosts(sys.FS, sys.Rec, PaperOpCosts.Scaled(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 6 {
		t.Fatalf("ops = %d", len(res.Ops))
	}
	wantOps := []string{"getattr", "read-64KB", "wr*-64KB", "mkdir:rwx", "mkdir:--x", "mkdir:both"}
	for i, op := range res.Ops {
		if op.Op != wantOps[i] {
			t.Errorf("op[%d] = %q, want %q", i, op.Op, wantOps[i])
		}
		if op.Total() <= 0 {
			t.Errorf("%s: zero total", op.Op)
		}
	}
}

func TestSchemeStudy(t *testing.T) {
	rows, err := SchemeStudy(SchemeConfig{Files: 40, Dirs: 4, ExtraUsers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var s1, s2 SchemeResult
	for _, r := range rows {
		if r.Scheme == "scheme1" {
			s1 = r
		} else {
			s2 = r
		}
	}
	// The core claim of §III-D: Scheme-2 stores far less metadata than
	// per-user replication once users outnumber CAPs.
	if s2.MetaObjects >= s1.MetaObjects {
		t.Errorf("scheme2 metadata objects (%d) not below scheme1 (%d)", s2.MetaObjects, s1.MetaObjects)
	}
	if s2.TotalBytes >= s1.TotalBytes {
		t.Errorf("scheme2 bytes (%d) not below scheme1 (%d)", s2.TotalBytes, s1.TotalBytes)
	}
	if s1.DollarPerUser <= 0 {
		t.Error("no cost extrapolation")
	}
}

// TestFig9ShapeHolds is the headline reproduction check at test scale:
// PUBLIC's list phase must be the most expensive by a wide margin, and
// SHAROES must track the NO-ENC baselines closely.
func TestFig9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs a shaped link")
	}
	opts := FigureOptions{
		Options: Options{Profile: netsim.DSL.Scaled(400), CacheBytes: -1},
		Scale:   10, // 50 files, 2 dirs
	}
	rows, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[SystemKind]CreateListResult{}
	for _, r := range rows {
		byKind[r.System] = r.Result
	}
	if byKind[SysPublic].List <= byKind[SysSharoes].List {
		t.Errorf("PUBLIC list (%v) not slower than SHAROES (%v)",
			byKind[SysPublic].List, byKind[SysSharoes].List)
	}
	if byKind[SysPublic].List <= byKind[SysNoEncMD].List {
		t.Errorf("PUBLIC list (%v) not slower than NO-ENC-MD (%v)",
			byKind[SysPublic].List, byKind[SysNoEncMD].List)
	}
	// The paper's crypto claim: the PUBLIC list phase is dominated by
	// private-key operations.
	if _, f := byKind[SysPublic].CryptoShares(); f < 0.3 {
		t.Errorf("PUBLIC list crypto fraction = %.2f, expected dominance", f)
	}
	if _, f := byKind[SysSharoes].CryptoShares(); f > 0.5 {
		t.Errorf("SHAROES list crypto fraction = %.2f, expected small", f)
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	PrintFig9(&buf, []Fig9Row{{System: SysSharoes, Result: CreateListResult{Create: time.Second, List: 2 * time.Second}}})
	PrintFig10(&buf, []Fig10Row{{System: SysSharoes, CachePct: 10, Result: PostmarkResult{Total: time.Second}}})
	rows := []Fig11Row{
		{System: SysNoEncMDD, Result: AndrewResult{Phase: [5]time.Duration{1, 2, 3, 4, 5}}},
		{System: SysSharoes, Result: AndrewResult{Phase: [5]time.Duration{2, 3, 4, 5, 6}}},
	}
	PrintFig11(&buf, rows)
	PrintFig12(&buf, rows)
	PrintFig13(&buf, OpCostsResult{Ops: nil})
	PrintScheme(&buf, []SchemeResult{{Scheme: "scheme2", Users: 4}})
	out := buf.String()
	for _, want := range []string{"Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13", "Scheme study", "SHAROES", "OVERHEAD"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}

// TestMacroWorkloadsAllSystems runs Postmark and Andrew end to end on
// every macro system, exercising each baseline's append/remove/rename
// paths under load.
func TestMacroWorkloadsAllSystems(t *testing.T) {
	for _, kind := range MacroSystems {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := Build(kind, fastOpts().Options)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if _, err := Postmark(sys.FS, PaperPostmark.Scaled(25)); err != nil {
				t.Fatalf("postmark: %v", err)
			}
			if _, err := Andrew(sys.FS, PaperAndrew.Scaled(10)); err != nil {
				t.Fatalf("andrew: %v", err)
			}
		})
	}
}

// TestOpCostsOnBaseline verifies the Figure 13 harness also runs against a
// baseline (used for side-by-side breakdowns).
func TestOpCostsOnBaseline(t *testing.T) {
	sys, err := Build(SysPubOpt, fastOpts().Options)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := OpCosts(sys.FS, sys.Rec, PaperOpCosts.Scaled(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 6 {
		t.Fatalf("ops = %d", len(res.Ops))
	}
}

// TestFigureRunnersSmoke exercises every figure runner end to end at tiny
// scale over a fast link, including the averaging path.
func TestFigureRunnersSmoke(t *testing.T) {
	opts := fastOpts()
	opts.Reps = 2

	rows9, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows9) != len(AllSystems) {
		t.Errorf("fig9 rows = %d", len(rows9))
	}
	for _, r := range rows9 {
		if r.Result.Create <= 0 || r.Result.List <= 0 {
			t.Errorf("fig9 %v: zero duration", r.System)
		}
	}

	rows10, err := RunFig10(opts, []int{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows10) != len(MacroSystems)*2 {
		t.Errorf("fig10 rows = %d", len(rows10))
	}

	rows11, err := RunFig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows11) != len(MacroSystems) {
		t.Errorf("fig11 rows = %d", len(rows11))
	}

	res13, err := RunFig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res13.Ops) != 6 {
		t.Errorf("fig13 ops = %d", len(res13.Ops))
	}

	scheme, err := RunScheme(SchemeConfig{Files: 20, Dirs: 2, ExtraUsers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(scheme) != 2 {
		t.Errorf("scheme rows = %d", len(scheme))
	}
}

// TestRepsRepeatFig10AndFig13 checks that -reps reaches the figures that
// once built and ran a single time: Figure 10 pools the transaction
// latencies of every repetition, and Figure 13 builds a fresh system per
// repetition.
func TestRepsRepeatFig10AndFig13(t *testing.T) {
	builds := 0
	build = func(kind SystemKind, o Options) (*System, error) {
		builds++
		return Build(kind, o)
	}
	t.Cleanup(func() { build = Build })

	txCounts := func(reps int) []int64 {
		opts := fastOpts()
		opts.Reps = reps
		rows, err := RunFig10(opts, []int{100})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, len(rows))
		for i, r := range rows {
			counts[i] = r.Result.TxLat.Count
		}
		return counts
	}
	one, two := txCounts(1), txCounts(2)
	for i := range one {
		if one[i] == 0 || two[i] != 2*one[i] {
			t.Errorf("fig10 row %d: TxLat.Count %d at Reps 2, want twice %d", i, two[i], one[i])
		}
	}

	opts := fastOpts()
	opts.Reps = 2
	builds = 0
	if _, err := RunFig13(opts); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("fig13 built %d systems at Reps 2, want 2", builds)
	}
}
