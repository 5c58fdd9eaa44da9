package workload

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/vfs"
)

// OpCostsConfig parameterizes the Figure 13 microbenchmark: the cost of
// individual Sharoes filesystem operations decomposed into NETWORK,
// CRYPTO and OTHER. Paper operations: getattr, read of a 1 MB file,
// write+close of a 1 MB file, and mkdir variants creating different CAPs
// (rwx, exec-only, and both).
type OpCostsConfig struct {
	FileBytes int // size of the large-I/O file (paper: 1 MB)
	Repeat    int // repetitions averaged per operation
}

// PaperOpCosts is the paper's configuration.
var PaperOpCosts = OpCostsConfig{FileBytes: 1 << 20, Repeat: 5}

// Scaled shrinks the configuration for test-sized runs.
func (c OpCostsConfig) Scaled(factor int) OpCostsConfig {
	if factor <= 1 {
		return c
	}
	out := c
	out.FileBytes /= factor
	if out.FileBytes < 4096 {
		out.FileBytes = 4096
	}
	if out.Repeat > 2 {
		out.Repeat = 2
	}
	return out
}

// OpCostsResult is one row set of Figure 13.
type OpCostsResult struct {
	Ops []stats.OpBreakdown
}

// OpCosts measures the per-operation breakdown on a Sharoes (or baseline)
// filesystem. Operations run on a cold cache so every cost is real.
func OpCosts(fs vfs.FS, rec *stats.Recorder, cfg OpCostsConfig) (OpCostsResult, error) {
	var res OpCostsResult
	if err := fs.Mkdir("/opcosts", 0o755); err != nil {
		return res, fmt.Errorf("opcosts: %w", err)
	}
	payload := bytes.Repeat([]byte{0xC3}, cfg.FileBytes)

	measure := func(op string, setup func(i int) error, action func(i int) error) error {
		var total stats.Snapshot
		var wall time.Duration
		for i := 0; i < cfg.Repeat; i++ {
			if setup != nil {
				if err := setup(i); err != nil {
					return fmt.Errorf("opcosts %s setup: %w", op, err)
				}
			}
			fs.Refresh()
			before := rec.Snapshot()
			start := time.Now()
			if err := errors.Join(action(i), fs.Sync()); err != nil {
				return fmt.Errorf("opcosts %s: %w", op, err)
			}
			wall += time.Since(start)
			total = addSnap(total, rec.Snapshot().Sub(before))
		}
		n := time.Duration(cfg.Repeat)
		avg := stats.BreakdownFrom(op, stats.Snapshot{}, divSnap(total, int64(cfg.Repeat)), wall/n)
		res.Ops = append(res.Ops, avg)
		return nil
	}

	// getattr: fetch and decrypt one metadata object.
	if err := fs.Create("/opcosts/statme", 0o644); err != nil {
		return res, err
	}
	if err := measure("getattr", nil, func(int) error {
		_, err := fs.Stat("/opcosts/statme")
		return err
	}); err != nil {
		return res, err
	}

	// read-1MB.
	if err := fs.WriteFile("/opcosts/big", payload, 0o644); err != nil {
		return res, err
	}
	if err := measure(fmt.Sprintf("read-%s", byteLabel(cfg.FileBytes)), nil, func(int) error {
		_, err := fs.ReadFile("/opcosts/big")
		return err
	}); err != nil {
		return res, err
	}

	// write+close-1MB (fresh file each repetition).
	if err := measure(fmt.Sprintf("wr*-%s", byteLabel(cfg.FileBytes)), nil, func(i int) error {
		return fs.WriteFile(fmt.Sprintf("/opcosts/w%d", i), payload, 0o644)
	}); err != nil {
		return res, err
	}

	// mkdir with an rwx CAP for every class (775: no exec-only view).
	if err := measure("mkdir:rwx", nil, func(i int) error {
		return fs.Mkdir(fmt.Sprintf("/opcosts/rwx%d", i), 0o775)
	}); err != nil {
		return res, err
	}

	// mkdir with an exec-only CAP (700 would be zero; 711 gives the
	// group and other classes the exec-only CAP with its per-row name
	// key derivation).
	if err := measure("mkdir:--x", nil, func(i int) error {
		return fs.Mkdir(fmt.Sprintf("/opcosts/xo%d", i), 0o711)
	}); err != nil {
		return res, err
	}

	// mkdir creating both CAP kinds at once (751: rwx owner, r-x group,
	// exec-only other).
	if err := measure("mkdir:both", nil, func(i int) error {
		return fs.Mkdir(fmt.Sprintf("/opcosts/both%d", i), 0o751)
	}); err != nil {
		return res, err
	}

	return res, nil
}

func addSnap(a, b stats.Snapshot) stats.Snapshot {
	return stats.Snapshot{
		Network: a.Network + b.Network, Crypto: a.Crypto + b.Crypto,
		Ops: a.Ops + b.Ops, BytesOut: a.BytesOut + b.BytesOut, BytesIn: a.BytesIn + b.BytesIn,
		CryptoOps: a.CryptoOps + b.CryptoOps,
	}
}

func divSnap(a stats.Snapshot, n int64) stats.Snapshot {
	d := time.Duration(n)
	return stats.Snapshot{
		Network: a.Network / d, Crypto: a.Crypto / d,
		Ops: a.Ops / n, BytesOut: a.BytesOut / n, BytesIn: a.BytesIn / n,
		CryptoOps: a.CryptoOps / n,
	}
}

func byteLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1024:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
