package meta

import (
	"errors"
	"testing"

	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
)

// TestMetaEnvelope: every section of one envelope opens for its own
// variant under its own MEK, and for nobody else; the envelope takes one
// signature, and after the first open the others skip Ed25519; a copy
// sealed by anyone but the MSK holder, or asked for under another inode,
// is refused.
func TestMetaEnvelope(t *testing.T) {
	const ino = 9
	_, sk, vk := fuzzKeys(t)
	secs := metaFuzzSections(t, "t", "o", "a/carol", "g") // any order
	before := SignCount()
	blob, err := SealMeta(ino, sk, secs)
	if err != nil {
		t.Fatal(err)
	}
	if n := SignCount() - before; n != 1 {
		t.Errorf("one envelope of %d sections took %d signatures, want 1", len(secs), n)
	}
	hit0, miss0 := VerifyMemoCounts()
	for _, sec := range secs {
		m, err := OpenMeta(ino, sec.Variant, sec.MEK, vk, blob)
		if err != nil {
			t.Fatalf("open %q: %v", sec.Variant, err)
		}
		if m.Attr.Owner != sec.Copy.Attr.Owner {
			t.Errorf("open %q gave the copy of %q", sec.Variant, m.Attr.Owner)
		}
		for _, other := range secs {
			if other.Variant != sec.Variant {
				if _, err := OpenMeta(ino, sec.Variant, other.MEK, vk, blob); !errors.Is(err, types.ErrTampered) {
					t.Errorf("section %q opened under %q's MEK: %v", sec.Variant, other.Variant, err)
				}
			}
		}
	}
	if hit, miss := VerifyMemoCounts(); miss != miss0 || hit == hit0 {
		t.Errorf("the writer's own envelope took %d signature checks (memo hits %d)", miss-miss0, hit-hit0)
	}
	if _, err := OpenMeta(ino+1, "o", secs[1].MEK, vk, blob); !errors.Is(err, types.ErrTampered) {
		t.Errorf("an envelope of inode %d opened as inode %d: %v", ino, ino+1, err)
	}
	if _, err := OpenMeta(ino, "u/alice", secs[1].MEK, vk, blob); !errors.Is(err, types.ErrNotExist) {
		t.Errorf("a variant without a section: %v, want ErrNotExist", err)
	}
	forger, _ := sharocrypto.NewSigningPair()
	forged, err := SealMeta(ino, forger, secs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMeta(ino, "o", secs[1].MEK, vk, forged); !errors.Is(err, types.ErrTampered) {
		t.Errorf("an envelope signed by another key opened: %v", err)
	}
	for _, bad := range [][]MetaSection{nil, {secs[0], secs[0]}, {{Variant: "", MEK: secs[0].MEK, Copy: secs[0].Copy}}} {
		if _, err := SealMeta(ino, sk, bad); err == nil {
			t.Errorf("SealMeta accepted %d sections with labels repeated, empty or missing", len(bad))
		}
	}
}

// TestOpenMetaRefusesMalformedSections: an envelope whose signature holds
// but whose labels are repeated, out of order or empty, or that has no
// section at all, is refused as tampered for every variant, the ones it
// could open among them.
func TestOpenMetaRefusesMalformedSections(t *testing.T) {
	const ino = 9
	_, sk, vk := fuzzKeys(t)
	secs := metaFuzzSections(t, "g", "o", "t")
	meks := map[string]sharocrypto.SymKey{}
	sealed := map[string][]byte{}
	for _, sec := range secs {
		meks[sec.Variant] = sec.MEK
		sealed[sec.Variant] = sec.MEK.Seal(sec.Copy.Encode(), MetaAAD(ino, sec.Variant))
	}
	for name, labels := range map[string][]string{
		"repeated": {"g", "o", "o"},
		"unsorted": {"o", "g", "t"},
		"empty":    {"", "g"},
		"none":     nil,
	} {
		ss := make([][]byte, len(labels))
		for i, l := range labels {
			ss[i] = sealed[l]
			if l == "" {
				ss[i] = sealed["o"]
			}
		}
		blob := signedBody(ino, sk, rawEnvelope(labels, ss))
		for _, v := range []string{"g", "o", "t"} {
			if _, err := OpenMeta(ino, v, meks[v], vk, blob); !errors.Is(err, types.ErrTampered) {
				t.Errorf("%s labels %q: open %q = %v, want ErrTampered", name, labels, v, err)
			}
		}
	}
}
