package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/vfs"
)

// AndrewConfig parameterizes the Andrew benchmark (paper §V-C), which
// simulates a software-development workload in five phases:
//
//  1. MakeDir — create the subdirectory skeleton recursively;
//  2. Copy    — copy a source tree into the target;
//  3. ScanDir — stat every file without touching data (≈ recursive ls);
//  4. ReadAll — read every byte of every file;
//  5. Make    — compile and link the sources.
//
// The original benchmark compiles its source tree with cc; here the
// "compiler" is a deterministic CPU-bound kernel (iterated hashing over
// the translation unit) that emits object files and a linked binary
// through the filesystem under test — the same compute + I/O mix.
type AndrewConfig struct {
	Dirs        int // subdirectories in the skeleton
	SourceFiles int
	SourceBytes int // approximate total source size
	CompileCost int // hash iterations per source byte (CPU work)
	Seed        int64
	// RNG, when non-nil, is the injected generator driving the synthetic
	// source tree; otherwise a fresh one is derived from Seed. Injection
	// lets a harness share one seeded stream across benchmarks (and keeps
	// every run reproducible — this package never touches the global
	// math/rand state).
	RNG *rand.Rand
}

// rng returns the injected generator, or a fresh seeded one.
func (c AndrewConfig) rng() *rand.Rand {
	if c.RNG != nil {
		return c.RNG
	}
	return rand.New(rand.NewSource(c.Seed))
}

// PaperAndrew approximates the original benchmark's source tree
// (~70 files, a few hundred KB).
var PaperAndrew = AndrewConfig{Dirs: 20, SourceFiles: 70, SourceBytes: 200_000, CompileCost: 40, Seed: 7}

// Scaled shrinks the configuration for test-sized runs.
func (c AndrewConfig) Scaled(factor int) AndrewConfig {
	if factor <= 1 {
		return c
	}
	out := c
	out.Dirs /= factor
	out.SourceFiles /= factor
	out.SourceBytes /= factor
	if out.Dirs < 2 {
		out.Dirs = 2
	}
	if out.SourceFiles < 4 {
		out.SourceFiles = 4
	}
	if out.SourceBytes < 4096 {
		out.SourceBytes = 4096
	}
	return out
}

// AndrewResult holds per-phase durations; Phase[i] is phase i+1.
type AndrewResult struct {
	Phase [5]time.Duration
}

// Total is the Figure 12 cumulative number.
func (r AndrewResult) Total() time.Duration {
	var t time.Duration
	for _, p := range r.Phase {
		t += p
	}
	return t
}

// sourceTree generates the deterministic synthetic source tree from the
// supplied generator.
func sourceTree(cfg AndrewConfig, rng *rand.Rand) map[string][]byte {
	files := make(map[string][]byte, cfg.SourceFiles)
	per := cfg.SourceBytes / cfg.SourceFiles
	for i := 0; i < cfg.SourceFiles; i++ {
		n := per/2 + rng.Intn(per) // vary sizes around the mean
		b := make([]byte, n)
		rng.Read(b)
		dir := i % cfg.Dirs
		files[fmt.Sprintf("sub%02d/unit%03d.c", dir, i)] = b
	}
	return files
}

// compile is the deterministic CPU kernel standing in for cc: iterated
// hashing over the translation unit, emitting an "object file".
func compile(src []byte, cost int) []byte {
	h := sharocrypto.ContentHash(src)
	iters := cost * len(src) / 32
	for i := 0; i < iters; i++ {
		h = sharocrypto.ContentHash(h[:])
	}
	obj := make([]byte, 0, len(src)/2+32)
	obj = append(obj, h[:]...)
	obj = append(obj, src[:len(src)/2]...) // object ≈ half the source size
	return obj
}

// Andrew runs the five phases. Each phase models a separate process, so
// the client cache is dropped at phase boundaries (the costs the paper
// reports per phase are real fetch-and-decrypt costs).
func Andrew(fs vfs.FS, cfg AndrewConfig) (AndrewResult, error) {
	var res AndrewResult
	src := sourceTree(cfg, cfg.rng())

	// Phase 1: make the directory skeleton.
	start := time.Now()
	if err := fs.Mkdir("/andrew", 0o755); err != nil {
		return res, fmt.Errorf("andrew phase1: %w", err)
	}
	for d := 0; d < cfg.Dirs; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/andrew/sub%02d", d), 0o755); err != nil {
			return res, fmt.Errorf("andrew phase1: %w", err)
		}
	}
	if err := fs.Sync(); err != nil {
		return res, fmt.Errorf("andrew phase1: %w", err)
	}
	res.Phase[0] = time.Since(start)
	fs.Refresh()

	// Phase 2: copy the source tree.
	start = time.Now()
	for _, name := range sortedKeys(src) {
		if err := fs.WriteFile("/andrew/"+name, src[name], 0o644); err != nil {
			return res, fmt.Errorf("andrew phase2: %w", err)
		}
	}
	if err := fs.Sync(); err != nil {
		return res, fmt.Errorf("andrew phase2: %w", err)
	}
	res.Phase[1] = time.Since(start)
	fs.Refresh()

	// Phase 3: examine the status of every file without reading data.
	start = time.Now()
	dirs, err := fs.ReadDir("/andrew")
	if err != nil {
		return res, fmt.Errorf("andrew phase3: %w", err)
	}
	for _, d := range dirs {
		dp := "/andrew/" + d
		if _, err := fs.Stat(dp); err != nil {
			return res, fmt.Errorf("andrew phase3: %w", err)
		}
		files, err := fs.ReadDir(dp)
		if err != nil {
			return res, fmt.Errorf("andrew phase3: %w", err)
		}
		for _, f := range files {
			if _, err := fs.Stat(dp + "/" + f); err != nil {
				return res, fmt.Errorf("andrew phase3: %w", err)
			}
		}
	}
	res.Phase[2] = time.Since(start)
	fs.Refresh()

	// Phase 4: examine every byte.
	start = time.Now()
	for _, name := range sortedKeys(src) {
		if _, err := fs.ReadFile("/andrew/" + name); err != nil {
			return res, fmt.Errorf("andrew phase4: %w", err)
		}
	}
	res.Phase[3] = time.Since(start)
	fs.Refresh()

	// Phase 5: compile and link.
	start = time.Now()
	var objNames []string
	for _, name := range sortedKeys(src) {
		unit, err := fs.ReadFile("/andrew/" + name)
		if err != nil {
			return res, fmt.Errorf("andrew phase5: %w", err)
		}
		obj := compile(unit, cfg.CompileCost)
		objName := "/andrew/" + name[:len(name)-2] + ".o"
		if err := fs.WriteFile(objName, obj, 0o644); err != nil {
			return res, fmt.Errorf("andrew phase5: %w", err)
		}
		objNames = append(objNames, objName)
	}
	// Link: concatenate-and-hash every object into the binary.
	var binary []byte
	for _, on := range objNames {
		obj, err := fs.ReadFile(on)
		if err != nil {
			return res, fmt.Errorf("andrew phase5 link: %w", err)
		}
		h := sharocrypto.ContentHash(obj)
		binary = append(binary, h[:]...)
	}
	if err := fs.WriteFile("/andrew/a.out", binary, 0o755); err != nil {
		return res, fmt.Errorf("andrew phase5 link: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return res, fmt.Errorf("andrew phase5 link: %w", err)
	}
	res.Phase[4] = time.Since(start)
	return res, nil
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
