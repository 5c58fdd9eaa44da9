package workload

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/vfs"
)

// PostmarkConfig parameterizes the Postmark benchmark (paper §V-B):
// a pool of small files receives a stream of random transactions —
// the metadata-intensive profile of web and mail servers. Paper values:
// 500 files of 500 B – 9.77 KB and 500 transactions.
type PostmarkConfig struct {
	Files        int
	Transactions int
	MinSize      int
	MaxSize      int
	// Subdirs shards the file pool (Postmark's -s option; mail and web
	// spools shard directories in practice).
	Subdirs int
	Seed    int64
	// RNG, when non-nil, is the injected generator driving transaction
	// choice and payloads; otherwise a fresh one is derived from Seed.
	// This package never touches the global math/rand state, so runs are
	// reproducible from (Seed, config) alone.
	RNG *rand.Rand
}

// rng returns the injected generator, or a fresh seeded one.
func (c PostmarkConfig) rng() *rand.Rand {
	if c.RNG != nil {
		return c.RNG
	}
	return rand.New(rand.NewSource(c.Seed))
}

// PaperPostmark is the paper's configuration (Postmark defaults).
var PaperPostmark = PostmarkConfig{
	Files:        500,
	Transactions: 500,
	MinSize:      500,
	MaxSize:      10000, // 9.77 KB
	Subdirs:      25,
	Seed:         1,
}

// Scaled shrinks the configuration by factor for test-sized runs.
func (c PostmarkConfig) Scaled(factor int) PostmarkConfig {
	if factor <= 1 {
		return c
	}
	out := c
	out.Files /= factor
	out.Transactions /= factor
	out.Subdirs /= factor
	if out.Files < 4 {
		out.Files = 4
	}
	if out.Transactions < 4 {
		out.Transactions = 4
	}
	if out.Subdirs < 1 {
		out.Subdirs = 1
	}
	return out
}

// DataSetBytes estimates the total data-set size, used to express cache
// budgets as a percentage of data (the Figure 10 x-axis).
func (c PostmarkConfig) DataSetBytes() int64 {
	return int64(c.Files) * int64(c.MinSize+c.MaxSize) / 2
}

// PostmarkResult is one Postmark run. TxLat is the per-transaction
// latency distribution across all four transaction types.
type PostmarkResult struct {
	Total        time.Duration
	Transactions int
	TxLat        obs.HistSnapshot
}

// Postmark runs the benchmark: create the file pool, then perform random
// read / append / create / delete transactions.
func Postmark(fs vfs.FS, cfg PostmarkConfig) (PostmarkResult, error) {
	var res PostmarkResult
	start := time.Now()
	if err := fs.Mkdir("/postmark", 0o755); err != nil {
		return res, fmt.Errorf("postmark: %w", err)
	}
	rng := cfg.rng()
	size := func() int { return cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize+1) }
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	if cfg.Subdirs < 1 {
		cfg.Subdirs = 1
	}
	for d := 0; d < cfg.Subdirs; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/postmark/s%02d", d), 0o755); err != nil {
			return res, fmt.Errorf("postmark: %w", err)
		}
	}
	live := make([]string, 0, cfg.Files*2)
	nextID := 0
	newPath := func() string {
		p := fmt.Sprintf("/postmark/s%02d/pm%05d", nextID%cfg.Subdirs, nextID)
		nextID++
		return p
	}
	for i := 0; i < cfg.Files; i++ {
		p := newPath()
		if err := fs.WriteFile(p, payload(size()), 0o644); err != nil {
			return res, fmt.Errorf("postmark create pool: %w", err)
		}
		live = append(live, p)
	}

	txHist := new(obs.Histogram)
	for tx := 0; tx < cfg.Transactions; tx++ {
		txStart := time.Now()
		switch rng.Intn(4) {
		case 0: // read
			p := live[rng.Intn(len(live))]
			if _, err := fs.ReadFile(p); err != nil {
				return res, fmt.Errorf("postmark tx %d read %s: %w", tx, p, err)
			}
		case 1: // append (Postmark's "write" transaction)
			p := live[rng.Intn(len(live))]
			if err := fs.Append(p, payload(cfg.MinSize)); err != nil {
				return res, fmt.Errorf("postmark tx %d append %s: %w", tx, p, err)
			}
		case 2: // create
			p := newPath()
			if err := fs.WriteFile(p, payload(size()), 0o644); err != nil {
				return res, fmt.Errorf("postmark tx %d create: %w", tx, err)
			}
			live = append(live, p)
		default: // delete
			if len(live) <= 1 {
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			if err := fs.Remove(p); err != nil {
				return res, fmt.Errorf("postmark tx %d delete %s: %w", tx, p, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		txHist.Observe(time.Since(txStart))
		res.Transactions++
	}
	if err := fs.Sync(); err != nil {
		return res, fmt.Errorf("postmark: %w", err)
	}
	res.Total = time.Since(start)
	res.TxLat = txHist.Snapshot()
	return res, nil
}
