package client

import (
	"bytes"
	"testing"

	"github.com/sharoes/sharoes/internal/meta"
)

// TestVerifyMemoAfterRefresh: every envelope a session re-reads after
// Refresh is one this process signed or already checked, so the re-reads
// take no Ed25519 check (meta.verify.memo_miss unchanged) and are served
// by the verified-envelope memo (meta.verify.memo_hit grows) — while the
// store is still asked for every blob, so nothing was skipped but the
// check. A second session of the same user, over the same store, shares
// the process-wide memo.
func TestVerifyMemoAfterRefresh(t *testing.T) {
	countedSchemes(t, func(t *testing.T, w *world, cs *countingStore) {
		files := map[string][]byte{
			"/d/a": []byte("aaa"),
			"/d/b": bytes.Repeat([]byte("b"), 200), // four 64-byte blocks: manifest, blocks and tail
		}
		alice := w.as("alice")
		if err := alice.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := alice.Mkdir("/d/sub", 0o755); err != nil {
			t.Fatal(err)
		}
		for p, data := range files {
			if err := alice.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		reread := func(s *Session) {
			t.Helper()
			if names, err := s.ReadDir("/d"); err != nil || len(names) != 3 {
				t.Fatalf("readdir /d = %v, %v", names, err)
			}
			if _, err := s.Stat("/d/sub"); err != nil {
				t.Fatal(err)
			}
			for p, want := range files {
				if info, err := s.Stat(p); err != nil || info.Size != uint64(len(want)) {
					t.Fatalf("stat %s = %+v, %v", p, info, err)
				}
				if got, err := s.ReadFile(p); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %s = %q, %v", p, got, err)
				}
			}
		}
		check := func(who string, run func()) {
			t.Helper()
			cs.take()
			hit0, miss0 := meta.VerifyMemoCounts()
			run()
			hit1, miss1 := meta.VerifyMemoCounts()
			if calls, _ := cs.take(); calls == 0 {
				t.Fatalf("%s: no store reads, so nothing was re-verified", who)
			}
			if miss1 != miss0 {
				t.Errorf("%s: %d Ed25519 checks (meta.verify.memo_miss), want 0", who, miss1-miss0)
			}
			if hit1 <= hit0 {
				t.Errorf("%s: meta.verify.memo_hit did not grow", who)
			}
		}

		alice.Refresh()
		check("after Refresh", func() { reread(alice) })
		check("second session", func() {
			s := w.mountFresh("alice", -1)
			defer s.Close()
			reread(s)
		})
	})
}
