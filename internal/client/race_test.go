package client

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
)

// TestConcurrentSessions mounts one Session per goroutine (the documented
// concurrency contract) over one shared store, and mixes private-subtree
// writes with reads of a shared file. Run under -race (make race / CI):
// the sessions share the store, the layout engine, and the key registry,
// so this exercises every cross-session structure for data races.
func TestConcurrentSessions(t *testing.T) {
	fixture(t)
	w := newWorld(t, layout.NewScheme2(fixReg), ssp.NewMemStore())

	// Seed a shared read-only file and per-worker directories as alice.
	setup := w.as("alice")
	sharedBody := bytes.Repeat([]byte("shared-data "), 20) // spans blocks
	if err := setup.WriteFile("/shared.txt", sharedBody, perm(t, "644")); err != nil {
		t.Fatal(err)
	}
	const workers = 6
	for i := 0; i < workers; i++ {
		if err := setup.Mkdir(fmt.Sprintf("/w%d", i), perm(t, "755")); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Alternate users so group and other permission paths are
			// both exercised concurrently.
			user := types.UserID("alice")
			if i%2 == 1 {
				user = "bob"
			}
			s := w.mountFresh(user, 1<<14) // small cache: constant eviction
			defer s.Close()
			dir := fmt.Sprintf("/w%d", i)
			for j := 0; j < 8; j++ {
				p := fmt.Sprintf("%s/f%d.txt", dir, j)
				body := []byte(fmt.Sprintf("worker %d file %d", i, j))
				// Only alice owns the worker directories; bob workers are
				// pure readers, exercising the group permission path.
				if user == "alice" {
					if err := s.WriteFile(p, body, perm(t, "644")); err != nil {
						errs <- fmt.Errorf("worker %d write %s: %w", i, p, err)
						return
					}
					got, err := s.ReadFile(p)
					if err != nil || !bytes.Equal(got, body) {
						errs <- fmt.Errorf("worker %d readback %s: %q, %v", i, p, got, err)
						return
					}
				}
				got, err := s.ReadFile("/shared.txt")
				if err != nil || !bytes.Equal(got, sharedBody) {
					errs <- fmt.Errorf("worker %d shared read: %v", i, err)
					return
				}
				// "ls -l" of the worker's own directory and of the shared
				// root: the getattrs after each listing go through the
				// sibling batch and its crypto worker pool, in every
				// session at once.
				for _, d := range []string{dir, "/"} {
					names, err := s.ReadDir(d)
					if err != nil {
						errs <- fmt.Errorf("worker %d readdir %s: %w", i, d, err)
						return
					}
					for _, n := range names {
						if _, err := s.Stat(strings.TrimSuffix(d, "/") + "/" + n); err != nil {
							errs <- fmt.Errorf("worker %d stat %s/%s: %w", i, d, n, err)
							return
						}
					}
				}
				if _, err := s.Stat("/shared.txt"); err != nil {
					errs <- fmt.Errorf("worker %d stat: %w", i, err)
					return
				}
				s.Refresh() // drop cached state; next reads refetch
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
