package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/sharoes/sharoes/internal/wire"
)

func TestRingLookupProperties(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4"}
	r, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		got := r.Lookup(wire.NSData, key, 3)
		if len(got) != 3 {
			t.Fatalf("Lookup(%q, 3) returned %d shards", key, len(got))
		}
		seen := map[int]bool{}
		for _, si := range got {
			if si < 0 || si >= len(ids) {
				t.Fatalf("Lookup(%q) index %d out of range", key, si)
			}
			if seen[si] {
				t.Fatalf("Lookup(%q) repeated shard %d", key, si)
			}
			seen[si] = true
		}
		if got[0] != r.Owner(wire.NSData, key) {
			t.Fatalf("Lookup(%q)[0] = %d, Owner = %d", key, got[0], r.Owner(wire.NSData, key))
		}
		// Deterministic across an identical rebuild.
		again, _ := NewRing(ids)
		got2 := again.Lookup(wire.NSData, key, 3)
		for j := range got {
			if got[j] != got2[j] {
				t.Fatalf("Lookup(%q) not deterministic: %v vs %v", key, got, got2)
			}
		}
	}
	// n clamps to the shard count; n<=0 yields nothing.
	if got := r.Lookup(wire.NSData, "k", 99); len(got) != len(ids) {
		t.Fatalf("clamped lookup returned %d shards, want %d", len(got), len(ids))
	}
	if got := r.Lookup(wire.NSData, "k", 0); got != nil {
		t.Fatalf("Lookup n=0 = %v, want nil", got)
	}
}

// Clients that name the same SSP set in a different order must place
// every key on the same replicas, in the same order: with the ring fixed
// at mount and never exchanged, nothing else keeps two clients in
// agreement.
func TestRingIgnoresDeclarationOrder(t *testing.T) {
	ids := []string{"host-a:7070", "host-b:7070", "host-c:7070", "host-d:7070"}
	a, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{ids[2], ids[0], ids[3], ids[1]})
	if err != nil {
		t.Fatal(err)
	}
	replicaIDs := func(r *Ring, ns wire.NS, key string) []string {
		var out []string
		for _, si := range r.Lookup(ns, key, len(ids)) {
			out = append(out, r.Shards[si])
		}
		return out
	}
	for _, ns := range []wire.NS{wire.NSMeta, wire.NSData} {
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k/%d", i)
			if got, want := replicaIDs(b, ns, key), replicaIDs(a, ns, key); !slices.Equal(got, want) {
				t.Fatalf("%s/%q: permuted ring places on %v, declared order on %v", ns, key, got, want)
			}
		}
	}
}

func TestRingBalanceAndStability(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	r, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	counts := make([]int, len(ids))
	owner := make(map[string]int, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj/%d", i)
		o := r.Owner(wire.NSData, key)
		counts[o]++
		owner[key] = o
	}
	for si, c := range counts {
		frac := float64(c) / float64(n)
		if frac < 0.12 || frac > 0.40 {
			t.Errorf("shard %s owns %.1f%% of keys; ring badly imbalanced", ids[si], 100*frac)
		}
	}
	// Adding one shard must not move keys between surviving shards: a key
	// either keeps its owner or moves to the new shard.
	grown, err := NewRing(append(append([]string(nil), ids...), "e"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key, o := range owner {
		no := grown.Owner(wire.NSData, key)
		if no == o {
			continue
		}
		if grown.Shards[no] != "e" {
			t.Fatalf("key %q moved %s -> %s, not to the new shard", key, ids[o], grown.Shards[no])
		}
		moved++
	}
	if moved == 0 || moved > n/2 {
		t.Errorf("adding 1 of 5 shards moved %d/%d keys; want roughly 1/5", moved, n)
	}
}

func TestRingNamespaceSpread(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if r.Owner(wire.NSData, key) != r.Owner(wire.NSMeta, key) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("namespaces do not spread independently: every key has one owner across NSData and NSMeta")
	}
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name   string
		shards []string
	}{
		{"empty", nil},
		{"blank id", []string{"a", ""}},
		{"duplicate", []string{"a", "b", "a"}},
	}
	for _, tc := range cases {
		if _, err := NewRing(tc.shards); !errors.Is(err, ErrBadRing) {
			t.Errorf("%s: err = %v, want ErrBadRing", tc.name, err)
		}
	}
}
