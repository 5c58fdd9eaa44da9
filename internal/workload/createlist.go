package workload

import (
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/vfs"
)

// CreateListConfig parameterizes the Create-and-List microbenchmark
// (paper §V-A1). Paper values: 500 empty files across 25 directories,
// then a recursive "ls -lR" that stats every file and directory.
type CreateListConfig struct {
	Files int
	Dirs  int
}

// PaperCreateList is the paper's configuration.
var PaperCreateList = CreateListConfig{Files: 500, Dirs: 25}

// Scaled returns the configuration shrunk by factor (for test-sized runs).
func (c CreateListConfig) Scaled(factor int) CreateListConfig {
	if factor <= 1 {
		return c
	}
	out := CreateListConfig{Files: c.Files / factor, Dirs: c.Dirs / factor}
	if out.Dirs < 1 {
		out.Dirs = 1
	}
	if out.Files < out.Dirs {
		out.Files = out.Dirs
	}
	return out
}

// CreateListResult reports the two phases with their cost decomposition
// and per-operation latency distributions (one create, respectively one
// stat, per observation), measured at the workload layer so baselines and
// Sharoes are sampled identically.
type CreateListResult struct {
	Create      time.Duration
	List        time.Duration
	CreateStats stats.Snapshot
	ListStats   stats.Snapshot
	CreateLat   obs.HistSnapshot
	ListLat     obs.HistSnapshot
}

// CryptoShares returns Figure 9's CRYPTO(C) and CRYPTO(L): each phase's
// CRYPTO time as a share of its wall time, the denominator Figure 13
// uses, so the untimed OTHER remainder counts.
func (r CreateListResult) CryptoShares() (create, list float64) {
	c := stats.BreakdownFrom("create", stats.Snapshot{}, r.CreateStats, r.Create)
	l := stats.BreakdownFrom("list", stats.Snapshot{}, r.ListStats, r.List)
	return c.CryptoFraction(), l.CryptoFraction()
}

// CreateList runs the benchmark: the create phase measures metadata
// encryption (every mknod seals new metadata and re-encrypts the parent
// table); the list phase measures metadata decryption (every stat opens a
// sealed metadata object — the phase where PUBLIC's private-key operations
// explode).
func CreateList(fs vfs.FS, rec *stats.Recorder, cfg CreateListConfig) (CreateListResult, error) {
	var res CreateListResult

	// --- create phase ---
	before := rec.Snapshot()
	start := time.Now()
	if err := fs.Mkdir("/bench", 0o755); err != nil {
		return res, fmt.Errorf("createlist: %w", err)
	}
	for d := 0; d < cfg.Dirs; d++ {
		if err := fs.Mkdir(dirPath(d), 0o755); err != nil {
			return res, fmt.Errorf("createlist: %w", err)
		}
	}
	createHist := new(obs.Histogram)
	for f := 0; f < cfg.Files; f++ {
		t := time.Now()
		if err := fs.Create(filePath(f%cfg.Dirs, f), 0o644); err != nil {
			return res, fmt.Errorf("createlist: %w", err)
		}
		createHist.Observe(time.Since(t))
	}
	if err := fs.Sync(); err != nil {
		return res, fmt.Errorf("createlist: %w", err)
	}
	res.Create = time.Since(start)
	res.CreateLat = createHist.Snapshot()
	mid := rec.Snapshot()
	res.CreateStats = mid.Sub(before)

	// --- list phase: ls -lR (readdir + stat of every entry) ---
	// The list runs cold, as in the paper: creation and listing are
	// separate program runs, so decryption costs are actually paid.
	fs.Refresh()
	listHist := new(obs.Histogram)
	start = time.Now()
	if _, err := fs.Stat("/bench"); err != nil {
		return res, fmt.Errorf("createlist list: %w", err)
	}
	names, err := fs.ReadDir("/bench")
	if err != nil {
		return res, fmt.Errorf("createlist list: %w", err)
	}
	for _, dn := range names {
		dp := "/bench/" + dn
		if _, err := fs.Stat(dp); err != nil {
			return res, fmt.Errorf("createlist list: %w", err)
		}
		files, err := fs.ReadDir(dp)
		if err != nil {
			return res, fmt.Errorf("createlist list: %w", err)
		}
		for _, fn := range files {
			t := time.Now()
			if _, err := fs.Stat(dp + "/" + fn); err != nil {
				return res, fmt.Errorf("createlist list: %w", err)
			}
			listHist.Observe(time.Since(t))
		}
	}
	res.List = time.Since(start)
	res.ListStats = rec.Snapshot().Sub(mid)
	res.ListLat = listHist.Snapshot()
	return res, nil
}

func dirPath(d int) string { return fmt.Sprintf("/bench/d%02d", d) }

func filePath(d, f int) string { return fmt.Sprintf("/bench/d%02d/f%03d", d, f) }
