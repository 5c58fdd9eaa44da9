package meta

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/sharoes/sharoes/internal/sharocrypto"
)

// testGroup seals n members, one per table variant of inode 7, under
// their own keys and AADs, with one signature from sk.
func testGroup(t *testing.T, sk sharocrypto.SignKey, n int) ([]GroupMember, [][]byte) {
	t.Helper()
	members := make([]GroupMember, n)
	for i := range members {
		members[i] = GroupMember{
			Key:   sharocrypto.NewSymKey(),
			AAD:   TableAAD(7, fmt.Sprintf("v%d", i)),
			Plain: bytes.Repeat([]byte{byte('a' + i)}, 40+i),
		}
	}
	before := SignCount()
	blobs := SealGroup(sk, members)
	if got := SignCount() - before; got != 1 {
		t.Fatalf("group of %d: %d signatures, want 1", n, got)
	}
	return members, blobs
}

// siblingsOf splits a member blob into its framed field, its sibling
// digests and its signature.
func siblingsOf(t testing.TB, blob []byte) (framed, sibs, sig []byte) {
	t.Helper()
	n, p := binary.Uvarint(blob)
	end, sigAt := p+int(n), len(blob)-sharocrypto.SigSize
	if p <= 0 || end > sigAt || (sigAt-end)%sha256.Size != 0 {
		t.Fatalf("blob of %d bytes is not framed ‖ k×32 ‖ sig", len(blob))
	}
	return blob[:end], blob[end:sigAt], blob[sigAt:]
}

func join(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestSealGroupLayout: member i of a group of n is framed_i ‖ the other
// n−1 digests, ascending ‖ one signature shared by the group, in an
// exact-capacity buffer; every member opens on its own, the first open of
// a group verifies and every later one is a memo hit; a group of one is
// byte-for-byte the size of SealSigned's envelope.
func TestSealGroupLayout(t *testing.T) {
	sk, vk := sharocrypto.NewSigningPair()
	for _, n := range []int{1, 3, 5} {
		members, blobs := testGroup(t, sk, n)
		digests := map[[sha256.Size]byte]bool{}
		var sig0 []byte
		for i, blob := range blobs {
			framed, sibs, sig := siblingsOf(t, blob)
			if len(sibs) != (n-1)*sha256.Size {
				t.Errorf("n=%d member %d: %d sibling bytes, want %d", n, i, len(sibs), (n-1)*sha256.Size)
			}
			if cap(blob) != len(blob) {
				t.Errorf("n=%d member %d: cap %d != len %d", n, i, cap(blob), len(blob))
			}
			if sig0 == nil {
				sig0 = sig
			} else if !bytes.Equal(sig, sig0) {
				t.Errorf("n=%d member %d: signature differs from member 0's", n, i)
			}
			own := framedDigest(envelopeDomain, framed, members[i].AAD)
			digests[own] = true
			for j := sha256.Size; j < len(sibs); j += sha256.Size {
				if bytes.Compare(sibs[j-sha256.Size:j], sibs[j:j+sha256.Size]) >= 0 {
					t.Errorf("n=%d member %d: siblings not ascending", n, i)
				}
			}
			if bytes.Contains(sibs, own[:]) {
				t.Errorf("n=%d member %d: lists its own digest", n, i)
			}
		}
		if len(digests) != n {
			t.Errorf("n=%d: %d distinct member digests", n, len(digests))
		}
		memoForget(envelopeMemoKey(vk, members[0].AAD, blobs[0]))
		for i, blob := range blobs {
			var pt []byte
			var err error
			h, m := memoDelta(func() { pt, err = OpenVerified(members[i].Key, vk, members[i].AAD, blob) })
			if err != nil || !bytes.Equal(pt, members[i].Plain) {
				t.Fatalf("n=%d member %d rejected: %v", n, i, err)
			}
			if want := [2]int64{0, 1}; i > 0 {
				want = [2]int64{1, 0}
				if [2]int64{h, m} != want {
					t.Errorf("n=%d member %d: %d hits, %d misses, want a hit on the group's entry", n, i, h, m)
				}
			} else if [2]int64{h, m} != want {
				t.Errorf("n=%d member 0: %d hits, %d misses, want one checked miss", n, h, m)
			}
		}
	}
	key := sharocrypto.NewSymKey()
	aad := MetaAAD(7, "o")
	lone := SealGroup(sk, []GroupMember{{Key: key, AAD: aad, Plain: make([]byte, 300)}})[0]
	if want := len(SealSigned(key, sk, aad, make([]byte, 300))); len(lone) != want {
		t.Errorf("group of one: %d bytes, SealSigned %d", len(lone), want)
	}
	if pt, err := OpenVerified(key, vk, aad, lone); err != nil || len(pt) != 300 {
		t.Errorf("group of one rejected: %v", err)
	}
}

// TestGroupTamperMatrix: a member opens under its own AAD, key and
// sibling list only. Every rearrangement of the group's bytes is
// ErrTampered, and none of them joins the verified memo.
func TestGroupTamperMatrix(t *testing.T) {
	sk, vk := sharocrypto.NewSigningPair()
	otherSK, _ := sharocrypto.NewSigningPair()
	members, blobs := testGroup(t, sk, 3)
	const i, j = 1, 2
	framed, sibs, sig := siblingsOf(t, blobs[i])
	own := framedDigest(envelopeDomain, framed, members[i].AAD)

	check := func(what string, aad, blob []byte) {
		t.Helper()
		mustTamper(t, what, members[i].Key, vk, aad, blob)
		if memoHolds(envelopeMemoKey(vk, aad, blob)) {
			t.Errorf("%s: a rejected blob joined the memo", what)
		}
	}

	check("member moved to a sibling's AAD", members[j].AAD, blobs[i])
	for b := range sibs {
		mut := append([]byte(nil), blobs[i]...)
		mut[len(framed)+b] ^= 0x01
		check(fmt.Sprintf("sibling byte %d flipped", b), members[i].AAD, mut)
	}
	check("first sibling dropped", members[i].AAD, join(framed, sibs[sha256.Size:], sig))
	check("last sibling dropped", members[i].AAD, join(framed, sibs[:sha256.Size], sig))
	high := bytes.Repeat([]byte{0xff}, sha256.Size)
	low := make([]byte, sha256.Size)
	check("sibling appended above", members[i].AAD, join(framed, sibs, high, sig))
	check("sibling appended below", members[i].AAD, join(framed, low, sibs, sig))
	check("siblings out of order", members[i].AAD, join(framed, sibs[sha256.Size:], sibs[:sha256.Size], sig))
	check("a sibling repeated", members[i].AAD, join(framed, sibs[:sha256.Size], sibs, sig))
	check("own digest listed as a sibling", members[i].AAD, join(framed, sibs, own[:], sig))
	check("group member presented as a lone envelope", members[i].AAD, join(framed, sig))
	check("sibling digests cut short", members[i].AAD, join(framed, sibs[:sha256.Size+1], sig))

	// Another writer signs the very same group message.
	m, ok := groupMessage(&own, sibs)
	if !ok {
		t.Fatal("test bug: honest siblings rejected")
	}
	check("member re-signed by another key", members[i].AAD, join(framed, sibs, otherSK.Sign(m[:])))

	// A lone envelope, valid on its own, with a sibling appended: the
	// sibling changes the signed message.
	key, aad := sharocrypto.NewSymKey(), MetaAAD(7, "o")
	lone := SealSigned(key, sk, aad, []byte("metadata"))
	lf, _, lsig := siblingsOf(t, lone)
	for name, d := range map[string][]byte{"high": high, "low": low, "a group's digest": sibs[:sha256.Size]} {
		blob := join(lf, d, lsig)
		mustTamper(t, "lone envelope with a sibling appended ("+name+")", key, vk, aad, blob)
		if memoHolds(envelopeMemoKey(vk, aad, blob)) {
			t.Errorf("lone envelope with %s sibling joined the memo", name)
		}
	}

	// Control: the honest member still opens.
	if pt, err := OpenVerified(members[i].Key, vk, members[i].AAD, blobs[i]); err != nil || !bytes.Equal(pt, members[i].Plain) {
		t.Fatalf("control: honest member rejected: %v", err)
	}
}
