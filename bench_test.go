package sharoes

// This file regenerates every table and figure of the paper's evaluation
// (§V) as Go benchmarks. Each benchmark builds the systems under test
// over a simulated WAN link and reports the figure's quantities as
// benchmark metrics. Absolute times differ from the 2008 testbed (see
// EXPERIMENTS.md for the calibration argument); the comparisons — who
// wins, by roughly what factor, where the crossovers fall — are the
// reproduction targets.
//
// Environment knobs:
//
//	SHAROES_BENCH_SCALE    divide paper workload sizes (default 20)
//	SHAROES_BENCH_PROFILE  "calibrated" (default), "dsl", "lan"
//
// A full-fidelity run (SCALE=1, PROFILE=dsl) reproduces the paper's exact
// workload over the paper's exact link; budget several hours, as the
// authors did.

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/workload"
)

func benchScale() int {
	if v := os.Getenv("SHAROES_BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return 20
}

func benchProfile() netsim.Profile {
	switch os.Getenv("SHAROES_BENCH_PROFILE") {
	case "dsl":
		return netsim.DSL
	case "lan":
		return netsim.LAN
	default:
		return workload.CalibratedProfile
	}
}

func benchOpts() workload.FigureOptions {
	return workload.FigureOptions{
		Options: workload.Options{Profile: benchProfile(), CacheBytes: -1},
		Scale:   benchScale(),
	}
}

// BenchmarkFig9CreateAndList regenerates Figure 9: create 500 files in 25
// directories, then "ls -lR", across the five implementations.
func BenchmarkFig9CreateAndList(b *testing.B) {
	opts := benchOpts()
	cfg := workload.PaperCreateList.Scaled(opts.Scale)
	for _, kind := range workload.AllSystems {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := workload.Build(kind, opts.Options)
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.CreateList(sys.FS, sys.Rec, cfg)
				sys.Close()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Create.Seconds(), "create-s")
				b.ReportMetric(res.List.Seconds(), "list-s")
				_, list := res.CryptoShares()
				b.ReportMetric(100*list, "list-crypto-%")
			}
		})
	}
}

// BenchmarkFig10Postmark regenerates Figure 10: Postmark transaction time
// against cache size (percent of the data set).
func BenchmarkFig10Postmark(b *testing.B) {
	opts := benchOpts()
	cfg := workload.PaperPostmark.Scaled(opts.Scale)
	dataSet := cfg.DataSetBytes()
	for _, kind := range workload.MacroSystems {
		for _, pct := range []int{0, 20, 100} {
			b.Run(fmt.Sprintf("%s/cache%d%%", kind, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := opts.Options
					o.CacheBytes = int64(float64(dataSet) * float64(pct) / 100 * 1.5)
					sys, err := workload.Build(kind, o)
					if err != nil {
						b.Fatal(err)
					}
					res, err := workload.Postmark(sys.FS, cfg)
					sys.Close()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Total.Seconds(), "postmark-s")
				}
			})
		}
	}
}

// BenchmarkFig11Andrew regenerates Figure 11: the Andrew benchmark per
// phase for the four macro systems.
func BenchmarkFig11Andrew(b *testing.B) {
	opts := benchOpts()
	cfg := workload.PaperAndrew.Scaled(opts.Scale)
	for _, kind := range workload.MacroSystems {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := workload.Build(kind, opts.Options)
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Andrew(sys.FS, cfg)
				sys.Close()
				if err != nil {
					b.Fatal(err)
				}
				for p, d := range res.Phase {
					b.ReportMetric(d.Seconds(), fmt.Sprintf("phase%d-s", p+1))
				}
				b.ReportMetric(res.Total().Seconds(), "total-s")
			}
		})
	}
}

// BenchmarkFig12AndrewCumulative regenerates Figure 12: cumulative Andrew
// time with overhead relative to NO-ENC-MD-D.
func BenchmarkFig12AndrewCumulative(b *testing.B) {
	opts := benchOpts()
	cfg := workload.PaperAndrew.Scaled(opts.Scale)
	for i := 0; i < b.N; i++ {
		var base float64
		for _, kind := range workload.MacroSystems {
			sys, err := workload.Build(kind, opts.Options)
			if err != nil {
				b.Fatal(err)
			}
			res, err := workload.Andrew(sys.FS, cfg)
			sys.Close()
			if err != nil {
				b.Fatal(err)
			}
			total := res.Total().Seconds()
			if kind == workload.SysNoEncMDD {
				base = total
			}
			b.ReportMetric(total, kind.String()+"-s")
			if base > 0 && kind != workload.SysNoEncMDD {
				b.ReportMetric(100*(total-base)/base, kind.String()+"-over-%")
			}
		}
	}
}

// BenchmarkFig13OpCosts regenerates Figure 13: per-operation cost
// decomposition (NETWORK / CRYPTO / OTHER) of the Sharoes filesystem.
func BenchmarkFig13OpCosts(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := workload.RunFig13(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range res.Ops {
			b.ReportMetric(float64(op.Total().Milliseconds()), op.Op+"-ms")
			if t := op.Total(); t > 0 {
				b.ReportMetric(100*float64(op.Crypto)/float64(t), op.Op+"-crypto-%")
			}
		}
	}
}

// BenchmarkSchemeStorage regenerates the §III-D Scheme-1 vs Scheme-2
// storage comparison (the paper's ~$0.60/user/month framing).
func BenchmarkSchemeStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := workload.SchemeStudy(workload.SchemeConfig{Files: 100, Dirs: 5, ExtraUsers: 6})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.TotalBytes), r.Scheme+"-bytes")
			b.ReportMetric(r.DollarPerUser, r.Scheme+"-$/user/mo")
		}
	}
}

// BenchmarkAblationRevocation compares immediate vs lazy revocation: the
// cost of a chmod that strips read access from a 256 KiB file (§IV-A1).
func BenchmarkAblationRevocation(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		name := "immediate"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			o := benchOpts().Options
			o.LazyRevocation = lazy
			sys, err := workload.Build(workload.SysSharoes, o)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			payload := make([]byte, 256<<10)
			if err := sys.FS.WriteFile("/big", payload, 0o644); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.FS.Chmod("/big", 0o600); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := sys.FS.Chmod("/big", 0o644); err != nil { // re-grant outside timing
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationSigning compares the fast-signature choice (Ed25519,
// standing in for the paper's ESIGN) against RSA-2048 signatures — the
// paper's footnote 3 ("over an order of magnitude faster").
func BenchmarkAblationSigning(b *testing.B) {
	msg := make([]byte, 4096)
	b.Run("ed25519", func(b *testing.B) {
		sk, vk := sharocrypto.NewSigningPair()
		for i := 0; i < b.N; i++ {
			sig := sk.Sign(msg)
			if err := vk.Verify(msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rsa2048", func(b *testing.B) {
		key, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			digest := sha256.Sum256(msg)
			sig, err := rsa.SignPKCS1v15(rand.Reader, key, crypto.SHA256, digest[:])
			if err != nil {
				b.Fatal(err)
			}
			if err := rsa.VerifyPKCS1v15(&key.PublicKey, crypto.SHA256, digest[:], sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationScheme compares metadata update costs under the two
// layouts: a chmod rewrites one sealed copy per variant — 3 class copies
// under Scheme-2, one copy per registered user under Scheme-1 (§III-D).
func BenchmarkAblationScheme(b *testing.B) {
	for _, scheme := range []string{"scheme2", "scheme1"} {
		b.Run(scheme, func(b *testing.B) {
			o := benchOpts().Options
			o.Scheme = scheme
			sys, err := workload.Build(workload.SysSharoes, o)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := sys.FS.Create("/target", 0o644); err != nil {
				b.Fatal(err)
			}
			perms := []Perm{0o640, 0o644}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.FS.Chmod("/target", perms[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBlockSize shows why larger files are divided into
// blocks encrypted separately (§II-B): the cost of a small append to a
// 1 MiB file under block-wise encryption vs whole-file re-encryption
// (block size = file size).
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []uint32{16 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("block%dKiB", bs>>10), func(b *testing.B) {
			o := benchOpts().Options
			o.BlockSize = bs
			sys, err := workload.Build(workload.SysSharoes, o)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := sys.FS.WriteFile("/big", make([]byte, 1<<20), 0o644); err != nil {
				b.Fatal(err)
			}
			tail := make([]byte, 512)
			b.SetBytes(512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.FS.Append("/big", tail); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMigration measures the bulk transition path: encrypting and
// uploading a synthetic enterprise tree through the migration tool.
func BenchmarkMigration(b *testing.B) {
	reg, _, err := workload.Enterprise()
	if err != nil {
		b.Fatal(err)
	}
	tree := migrate.Dir("", "alice", "eng", 0o755)
	for d := 0; d < 5; d++ {
		dir := migrate.Dir(fmt.Sprintf("d%d", d), "alice", "eng", 0o755)
		for f := 0; f < 20; f++ {
			dir.Children = append(dir.Children,
				migrate.File(fmt.Sprintf("f%d", f), "alice", "eng", 0o644, make([]byte, 4096)))
		}
		tree.Children = append(tree.Children, dir)
	}
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := migrate.MigrateTree(migrate.Options{
			Store: ssp.NewMemStore(), Registry: reg, Layout: layout.NewScheme2(reg),
			FSID: "migbench", RootOwner: "alice", RootGroup: "eng"}, tree)
		if err != nil {
			b.Fatal(err)
		}
		total += st.Bytes
	}
	b.SetBytes(total / int64(b.N))
}
