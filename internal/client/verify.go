package client

import (
	"errors"
	"fmt"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/types"
)

// VerifyReport summarizes an integrity walk (paper §VII: "any malicious
// attacks can be detected through in-built verification processes and
// integrity techniques" — this is that process, run on demand like fsck).
type VerifyReport struct {
	// Objects is the number of filesystem objects whose metadata was
	// fetched and verified.
	Objects int
	// Blocks is the number of data blocks verified.
	Blocks int
	// Bytes is the total plaintext bytes verified.
	Bytes int64
	// Skipped counts objects the caller had no keys for (verification is
	// necessarily scoped to what the verifier may read).
	Skipped int
	// Problems lists every integrity failure found, by path.
	Problems []VerifyProblem
}

// VerifyProblem is one detected integrity failure.
type VerifyProblem struct {
	Path string
	Err  error
}

// OK reports whether the walk found no problems.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// String summarizes the report.
func (r *VerifyReport) String() string {
	return fmt.Sprintf("verified %d objects, %d blocks (%d bytes), %d skipped, %d problems",
		r.Objects, r.Blocks, r.Bytes, r.Skipped, len(r.Problems))
}

// Verify walks the subtree at path, fetching and cryptographically
// verifying every metadata object, directory-table view, manifest and
// data block the session's keys can open. It runs with the cache bypassed
// so every blob is re-fetched from the SSP and re-checked.
func (s *Session) Verify(path string) (*VerifyReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := s.beginOp("verify")
	defer end()
	if err != nil {
		return nil, pathErr("verify", path, err)
	}

	// Bypass (and afterwards restore) the cache so the SSP cannot hide
	// behind previously verified copies.
	s.cache.Clear()

	report := &VerifyReport{}
	r, _, _, err := s.resolveRef(path, false)
	if err != nil {
		return nil, pathErr("verify", path, err)
	}
	s.verifyWalk(path, r, report)
	s.cache.Clear()
	return report, nil
}

func (s *Session) verifyWalk(path string, r ref, report *VerifyReport) {
	m, _, err := s.fetchMeta(r, alone)
	if err != nil {
		report.Problems = append(report.Problems, VerifyProblem{Path: path, Err: err})
		return
	}
	report.Objects++

	switch m.Attr.Kind {
	case types.KindFile:
		if m.Keys.DEK.IsZero() {
			report.Skipped++
			return
		}
		man, pre, err := s.fetchManifest(r, m, nil, withContent)
		if err != nil {
			report.Problems = append(report.Problems, VerifyProblem{Path: path, Err: err})
			return
		}
		content, err := s.readBlocks(nil, r, m, man, 0, man.NBlocks, pre)
		if err != nil {
			report.Problems = append(report.Problems, VerifyProblem{Path: path, Err: err})
			return
		}
		report.Blocks += int(man.NBlocks)
		report.Bytes += int64(len(content))
	case types.KindDir:
		if m.Keys.DEK.IsZero() {
			report.Skipped++
			return
		}
		view, err := s.openViewOf(r, m, nil)
		if err != nil {
			report.Problems = append(report.Problems, VerifyProblem{Path: path, Err: err})
			return
		}
		names, err := view.Names()
		if err != nil {
			// Exec-only view: contents unverifiable without names.
			report.Skipped++
			return
		}
		for _, name := range names {
			childPath := path + "/" + name
			if path == "/" {
				childPath = "/" + name
			}
			entry, err := view.Lookup(name)
			if err != nil {
				// A names-only view cannot descend; count and move on.
				if errors.Is(err, cap.ErrNoKeys) {
					report.Skipped++
					continue
				}
				report.Problems = append(report.Problems, VerifyProblem{Path: childPath, Err: err})
				continue
			}
			var cr ref
			if entry.Split {
				if cr, err = s.resolveSplit(entry.Inode); err != nil {
					if errors.Is(err, types.ErrPermission) {
						report.Skipped++
						continue
					}
					report.Problems = append(report.Problems, VerifyProblem{Path: childPath, Err: err})
					continue
				}
			} else {
				cr = ref{ino: entry.Inode, variant: entry.Variant, mek: entry.MEK, mvk: entry.MVK}
			}
			s.verifyWalk(childPath, cr, report)
		}
	}
}
