package workload

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/sharoes/sharoes/internal/stats"
)

// FigureOptions configures one figure regeneration.
type FigureOptions struct {
	Options
	// Scale divides the paper's workload sizes (1 = full paper scale;
	// benchmarks use larger values to finish in test time).
	Scale int
	// Reps averages each measurement over this many runs (the paper
	// averaged ten). Default 1.
	Reps int
}

func (o FigureOptions) reps() int {
	if o.Reps < 1 {
		return 1
	}
	return o.Reps
}

// build is Build, held in a variable so tests can count the systems a
// figure runner builds.
var build = Build

// eachRep builds a fresh system of kind once per repetition, runs fn on it
// and tears it down again.
func eachRep(reps int, kind SystemKind, o Options, fn func(*System) error) error {
	for rep := 0; rep < reps; rep++ {
		sys, err := build(kind, o)
		if err != nil {
			return err
		}
		if err := errors.Join(fn(sys), sys.Close()); err != nil {
			return err
		}
	}
	return nil
}

// Fig9Row is one implementation's Create-and-List result.
type Fig9Row struct {
	System SystemKind
	Result CreateListResult
}

// RunFig9 regenerates Figure 9: Create-and-List across the five
// implementations, averaged over opts.Reps runs.
func RunFig9(opts FigureOptions) ([]Fig9Row, error) {
	cfg := PaperCreateList.Scaled(opts.Scale)
	n := opts.reps()
	rows := make([]Fig9Row, 0, len(AllSystems))
	for _, kind := range AllSystems {
		var acc CreateListResult
		err := eachRep(n, kind, opts.Options, func(sys *System) error {
			res, err := CreateList(sys.FS, sys.Rec, cfg)
			if err != nil {
				return err
			}
			acc.Create += res.Create
			acc.List += res.List
			acc.CreateStats = addSnap(acc.CreateStats, res.CreateStats)
			acc.ListStats = addSnap(acc.ListStats, res.ListStats)
			// Latency distributions merge rather than average: percentiles
			// over the pooled samples of all reps.
			acc.CreateLat.Merge(res.CreateLat)
			acc.ListLat.Merge(res.ListLat)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fig9 %v: %w", kind, err)
		}
		acc.Create /= time.Duration(n)
		acc.List /= time.Duration(n)
		acc.CreateStats = divSnap(acc.CreateStats, int64(n))
		acc.ListStats = divSnap(acc.ListStats, int64(n))
		rows = append(rows, Fig9Row{System: kind, Result: acc})
	}
	return rows, nil
}

// PrintFig9 renders the figure as a table.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintf(w, "Figure 9 — Create-and-List benchmark\n")
	fmt.Fprintf(w, "%-12s %12s %12s %10s %10s\n", "SYSTEM", "CREATE", "LIST", "CRYPTO(C)", "CRYPTO(L)")
	for _, r := range rows {
		create, list := r.Result.CryptoShares()
		fmt.Fprintf(w, "%-12s %12s %12s %9.1f%% %9.1f%%\n",
			r.System, round(r.Result.Create), round(r.Result.List), 100*create, 100*list)
	}
}

// Fig10Row is one (implementation, cache size) Postmark measurement.
type Fig10Row struct {
	System   SystemKind
	CachePct int
	Result   PostmarkResult
	// Stats is the run's cost decomposition and wire-byte totals.
	Stats stats.Snapshot
}

// RunFig10 regenerates Figure 10: Postmark time vs cache size (percent of
// data-set size) for the four macro systems, averaged over opts.Reps runs.
func RunFig10(opts FigureOptions, cachePcts []int) ([]Fig10Row, error) {
	if len(cachePcts) == 0 {
		cachePcts = []int{0, 20, 40, 60, 80, 100}
	}
	cfg := PaperPostmark.Scaled(opts.Scale)
	dataSet := cfg.DataSetBytes()
	n := opts.reps()
	var rows []Fig10Row
	for _, kind := range MacroSystems {
		for _, pct := range cachePcts {
			o := opts.Options
			// The budget covers data plus decrypted-metadata overhead;
			// 100% means the working set fits entirely.
			o.CacheBytes = int64(float64(dataSet) * float64(pct) / 100.0 * 1.5)
			row := Fig10Row{System: kind, CachePct: pct}
			err := eachRep(n, kind, o, func(sys *System) error {
				res, err := Postmark(sys.FS, cfg)
				if err != nil {
					return err
				}
				row.Result.Total += res.Total
				row.Result.Transactions += res.Transactions
				row.Result.TxLat.Merge(res.TxLat)
				row.Stats = addSnap(row.Stats, sys.Rec.Snapshot())
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 %v/%d%%: %w", kind, pct, err)
			}
			row.Result.Total /= time.Duration(n)
			row.Result.Transactions /= n
			row.Stats = divSnap(row.Stats, int64(n))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFig10 renders the cache-size sweep.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10 — Postmark benchmark (time vs cache size)\n")
	fmt.Fprintf(w, "%-12s %8s %12s\n", "SYSTEM", "CACHE%", "TIME")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d%% %12s\n", r.System, r.CachePct, round(r.Result.Total))
	}
}

// Fig11Row is one implementation's Andrew result.
type Fig11Row struct {
	System SystemKind
	Result AndrewResult
}

// RunFig11 regenerates Figures 11 and 12: the Andrew benchmark per phase
// and cumulative, averaged over opts.Reps runs.
func RunFig11(opts FigureOptions) ([]Fig11Row, error) {
	cfg := PaperAndrew.Scaled(opts.Scale)
	n := opts.reps()
	rows := make([]Fig11Row, 0, len(MacroSystems))
	for _, kind := range MacroSystems {
		var acc AndrewResult
		err := eachRep(n, kind, opts.Options, func(sys *System) error {
			res, err := Andrew(sys.FS, cfg)
			if err != nil {
				return err
			}
			for i := range acc.Phase {
				acc.Phase[i] += res.Phase[i]
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fig11 %v: %w", kind, err)
		}
		for i := range acc.Phase {
			acc.Phase[i] /= time.Duration(n)
		}
		rows = append(rows, Fig11Row{System: kind, Result: acc})
	}
	return rows, nil
}

// PrintFig11 renders the per-phase results.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintf(w, "Figure 11 — Andrew benchmark (per phase)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n", "SYSTEM", "P1:mkdir", "P2:copy", "P3:stat", "P4:read", "P5:make")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n", r.System,
			round(r.Result.Phase[0]), round(r.Result.Phase[1]), round(r.Result.Phase[2]),
			round(r.Result.Phase[3]), round(r.Result.Phase[4]))
	}
}

// PrintFig12 renders the cumulative table with overheads relative to
// NO-ENC-MD-D, the paper's Figure 12 framing.
func PrintFig12(w io.Writer, rows []Fig11Row) {
	fmt.Fprintf(w, "Figure 12 — Andrew benchmark (cumulative)\n")
	fmt.Fprintf(w, "%-12s %12s %10s\n", "SYSTEM", "TIME", "OVERHEAD")
	var base time.Duration
	for _, r := range rows {
		if r.System == SysNoEncMDD {
			base = r.Result.Total()
		}
	}
	for _, r := range rows {
		total := r.Result.Total()
		if r.System == SysNoEncMDD || base == 0 {
			fmt.Fprintf(w, "%-12s %12s %10s\n", r.System, round(total), "–")
			continue
		}
		over := 100 * (float64(total) - float64(base)) / float64(base)
		fmt.Fprintf(w, "%-12s %12s %9.1f%%\n", r.System, round(total), over)
	}
}

// RunFig13 regenerates Figure 13: Sharoes filesystem operation costs
// decomposed into NETWORK / CRYPTO / OTHER, averaged over opts.Reps runs.
func RunFig13(opts FigureOptions) (OpCostsResult, error) {
	var acc OpCostsResult
	n := opts.reps()
	err := eachRep(n, SysSharoes, opts.Options, func(sys *System) error {
		res, err := OpCosts(sys.FS, sys.Rec, PaperOpCosts.Scaled(opts.Scale))
		if err != nil {
			return err
		}
		if acc.Ops == nil {
			acc = res
			return nil
		}
		for i, op := range res.Ops {
			acc.Ops[i].Network += op.Network
			acc.Ops[i].Crypto += op.Crypto
			acc.Ops[i].Other += op.Other
		}
		return nil
	})
	if err != nil {
		return OpCostsResult{}, fmt.Errorf("fig13: %w", err)
	}
	for i := range acc.Ops {
		acc.Ops[i].Network /= time.Duration(n)
		acc.Ops[i].Crypto /= time.Duration(n)
		acc.Ops[i].Other /= time.Duration(n)
	}
	return acc, nil
}

// PrintFig13 renders the breakdown.
func PrintFig13(w io.Writer, res OpCostsResult) {
	fmt.Fprintf(w, "Figure 13 — Sharoes filesystem operation costs\n")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %8s\n", "OP", "TOTAL", "NETWORK", "CRYPTO", "OTHER", "CRYPTO%")
	for _, op := range res.Ops {
		fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %7.1f%%\n",
			op.Op, round(op.Total()), round(op.Network), round(op.Crypto), round(op.Other), 100*op.CryptoFraction())
	}
}

// RunScheme regenerates the Scheme-1 vs Scheme-2 storage study (§III-D).
func RunScheme(cfg SchemeConfig) ([]SchemeResult, error) { return SchemeStudy(cfg) }

// PrintScheme renders the study.
func PrintScheme(w io.Writer, rows []SchemeResult) {
	fmt.Fprintf(w, "Scheme study (§III-D) — metadata layout storage costs\n")
	fmt.Fprintf(w, "%-9s %6s %7s %12s %12s %12s %14s\n",
		"SCHEME", "USERS", "FILES", "METAOBJS", "BYTES", "B/FILE", "$/USER/MO(1M)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %6d %7d %12d %12d %12.0f %14.2f\n",
			r.Scheme, r.Users, r.Files, r.MetaObjects, r.TotalBytes, r.BytesPerFile, r.DollarPerUser)
	}
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
