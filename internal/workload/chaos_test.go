package workload

import (
	"testing"
	"time"
)

// TestChaosCampaign runs a short fixed-seed mixed campaign and checks the
// full verdict chain: convergence, classified-errors-only, goroutine
// settling (all asserted inside RunChaos).
func TestChaosCampaign(t *testing.T) {
	res, err := RunChaos(ChaosOptions{Seed: 42, Duration: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	s := res.Summary
	if !s.Pass || s.Diverged != 0 {
		t.Fatalf("campaign diverged: %+v", s)
	}
	if s.Keys == 0 || s.Ops == 0 {
		t.Fatalf("campaign did no work: %+v", s)
	}
	if s.Severs == 0 {
		t.Errorf("mixed campaign injected no severs: %+v", s)
	}
	if s.Redials == 0 {
		t.Errorf("campaign never redialed: %+v", s)
	}
}

// TestChaosProfiles smokes each single-mode injection profile briefly.
func TestChaosProfiles(t *testing.T) {
	for _, profile := range []string{ChaosDrops, ChaosSlow, ChaosWrite} {
		res, err := RunChaos(ChaosOptions{Seed: 7, Duration: 600 * time.Millisecond, Profile: profile})
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		if !res.Summary.Pass {
			t.Errorf("%s: diverged: %+v", profile, res.Summary)
		}
		if res.Summary.Faults == 0 && res.Summary.Severs == 0 {
			t.Errorf("%s: injected nothing: %+v", profile, res.Summary)
		}
	}
}
