package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/refmodel"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// putLog records every batch written through it.
type putLog struct {
	ssp.BlobStore
	mu      sync.Mutex
	batches [][]wire.KV
}

func (p *putLog) BatchPut(items []wire.KV) error {
	p.mu.Lock()
	p.batches = append(p.batches, items)
	p.mu.Unlock()
	return p.BlobStore.BatchPut(items)
}

// takeNS returns the items of namespace ns written since the last call.
func (p *putLog) takeNS(ns wire.NS) []wire.KV {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []wire.KV
	for _, b := range p.batches {
		for _, kv := range b {
			if kv.NS == ns {
				out = append(out, kv)
			}
		}
	}
	p.batches = nil
	return out
}

// TestMetaEnvelopeBudget: under Scheme-2 a create or a chmod writes one
// metadata blob, and it is smaller than the copies it holds would be as
// blobs of their own, each with its signature (meta.Metadata.Seal, the
// layout before the envelope), by at least the two signatures it saves.
func TestMetaEnvelopeBudget(t *testing.T) {
	fixture(t)
	log := &putLog{BlobStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), log)
	alice := w.as("alice")
	for _, step := range []struct {
		desc, path string
		op         func() error
	}{
		{"create 0644", "/f", func() error { return alice.Create("/f", 0o644) }},
		{"chmod 0664", "/f", func() error { return alice.Chmod("/f", 0o664) }},
		{"mkdir 0755", "/d", func() error { return alice.Mkdir("/d", 0o755) }},
		{"chmod 0750", "/d", func() error { return alice.Chmod("/d", 0o750) }},
	} {
		log.takeNS(wire.NSMeta)
		must(t, step.op())
		metas := log.takeNS(wire.NSMeta)
		if len(metas) != 1 || metas[0].Delete {
			t.Fatalf("%s writes %d metadata items (%+v), want one blob", step.desc, len(metas), metas)
		}
		_, m, err := alice.resolve(step.path)
		if err != nil {
			t.Fatal(err)
		}
		perCopy := 0
		for _, v := range w.eng.Variants(m.Attr) {
			perCopy += len(w.eng.MetaCopy(m, v).Seal(v.MEK(m), m.Keys.MSK, meta.MetaAAD(m.Attr.Inode, v.ID)))
		}
		got := len(metas[0].Val)
		if limit := perCopy - 2*sharocrypto.SigSize; got > limit {
			t.Errorf("%s: the envelope is %d B; the copies as blobs of their own are %d B, so at most %d B", step.desc, got, perCopy, limit)
		}
		t.Logf("%s: envelope %d B, copies as blobs of their own %d B", step.desc, got, perCopy)
	}
}

// TestVariantDropKeepsBlob: granting carol an ACL and taking it away
// again, on a file and on a directory, adds and drops a Scheme-2 copy.
// Its section goes with the blob the same batch rewrites, never by a
// delete of the shared key, and every batch names each key once
// (onceStore). Afterwards fresh sessions of alice, bob and carol read
// what the reference model says, refusals included.
func TestVariantDropKeepsBlob(t *testing.T) {
	schemes(t, func(t *testing.T, sw *world) {
		w := newWorld(t, sw.eng, &onceStore{BlobStore: ssp.NewMemStore(), t: t})
		members := refmodel.Memberships{}
		members.AddMember("eng", "alice")
		members.AddMember("eng", "bob")
		members.AddMember("qa", "carol")
		model := refmodel.New("alice", "eng", 0o755, members)
		alice := w.mountFresh("alice", -1)
		defer alice.Close()
		same := func(desc string, got, want error) {
			t.Helper()
			if errClass(got) != errClass(want) {
				t.Fatalf("%s: sharoes %v, model %v", desc, got, want)
			}
		}
		same("mkdir /d", alice.Mkdir("/d", 0o750), model.Mkdir("alice", "/d", 0o750))
		same("write /d/g", alice.WriteFile("/d/g", []byte("in d"), 0o644), model.WriteFile("alice", "/d/g", []byte("in d"), 0o644))
		same("write /f", alice.WriteFile("/f", []byte("secret"), 0o640), model.WriteFile("alice", "/f", []byte("secret"), 0o640))

		// check compares what fresh sessions read with the model.
		check := func(after string) {
			t.Helper()
			for _, u := range []types.UserID{"alice", "bob", "carol"} {
				s := w.mountFresh(u, -1)
				for _, p := range []string{"/f", "/d", "/d/g"} {
					desc := fmt.Sprintf("after %s: %s stat %s", after, u, p)
					gi, ge := s.Stat(p)
					wi, we := model.Stat(u, p)
					same(desc, ge, we)
					if ge == nil && (gi.Perm != wi.Perm || gi.Owner != wi.Owner) {
						t.Errorf("%s: %+v, model %+v", desc, gi, wi)
					}
				}
				for _, p := range []string{"/f", "/d/g"} {
					got, ge := s.ReadFile(p)
					want, we := model.ReadFile(u, p)
					same(fmt.Sprintf("after %s: %s read %s", after, u, p), ge, we)
					if ge == nil && !bytes.Equal(got, want) {
						t.Errorf("after %s: %s read %s = %q, model %q", after, u, p, got, want)
					}
				}
				got, ge := s.ReadDir("/d")
				want, we := model.ReadDir(u, "/d")
				same(fmt.Sprintf("after %s: %s readdir /d", after, u), ge, we)
				if !slices.Equal(got, want) {
					t.Errorf("after %s: %s readdir /d = %v, model %v", after, u, got, want)
				}
				s.Close()
			}
		}
		check("setup")
		for _, g := range []struct {
			path   string
			rights types.Triplet
		}{{"/f", types.TripletRead}, {"/d", types.TripletRead | types.TripletExec}} {
			desc := fmt.Sprintf("setacl %s carol %s", g.path, g.rights)
			same(desc, alice.SetACL(g.path, "carol", g.rights), model.SetACL("alice", g.path, "carol", g.rights))
			check(desc)
			desc = fmt.Sprintf("removeacl %s carol", g.path)
			same(desc, alice.RemoveACL(g.path, "carol"), model.RemoveACL("alice", g.path, "carol"))
			check(desc)
		}
	})
}

// TestMetaKeysNameNoReader pins what metadata storage keys leak under
// Scheme-2 (DESIGN.md §5): after a run of random operations by every
// user, ACL grants among them, every metadata key is "m/<ino>" — it
// names no class and no grantee — and a Stat of one file by its owner, a
// group member and another user asks the SSP for the same metadata key.
func TestMetaKeysNameNoReader(t *testing.T) {
	fixture(t)
	cs := &countingStore{BlobStore: ssp.NewMemStore()}
	w := newWorld(t, layout.NewScheme2(fixReg), cs)
	alice := w.as("alice")
	must(t, alice.Mkdir("/d", 0o755), alice.WriteFile("/d/f", []byte("shared"), 0o640))

	users := []types.UserID{"alice", "bob", "carol", "dave"}
	names := []string{"a", "b", "c"}
	rights := []types.Triplet{types.TripletRead, types.TripletRead | types.TripletWrite, types.TripletRead | types.TripletExec}
	rng := rand.New(rand.NewSource(1))
	grants := 0
	for step := 0; step < 200; step++ {
		s := w.as(users[rng.Intn(len(users))])
		p := "/d/" + names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			p = "/" + names[rng.Intn(len(names))]
		}
		var err error
		switch op := rng.Intn(10); {
		case op < 2:
			err = s.Mkdir(p, 0o755)
		case op < 4:
			err = s.WriteFile(p, []byte("data"), 0o644)
		case op < 7:
			if err = s.SetACL(p, users[rng.Intn(len(users))], rights[rng.Intn(len(rights))]); err == nil {
				grants++
			}
		case op < 8:
			err = s.RemoveACL(p, users[rng.Intn(len(users))])
		case op < 9:
			err = s.Chmod(p, 0o750)
		default:
			err = s.Remove(p)
		}
		_ = err // refusals are part of the run: only the store it leaves matters
	}
	if grants == 0 {
		t.Fatal("the run made no ACL grant")
	}
	items, err := cs.BlobStore.List(wire.NSMeta, "")
	if err != nil {
		t.Fatal(err)
	}
	perInode := regexp.MustCompile(`^m/[0-9]+$`)
	for _, it := range items {
		if !perInode.MatchString(it.Key) {
			t.Errorf("metadata key %q names more than its inode", it.Key)
		}
	}

	var asked [][]string
	for _, u := range []types.UserID{"alice", "bob", "carol"} {
		s := w.mountFresh(u, -1)
		if _, err := s.Stat("/d"); err != nil {
			t.Fatalf("%s stat /d: %v", u, err)
		}
		cs.takeReads()
		if _, err := s.Stat("/d/f"); err != nil {
			t.Fatalf("%s stat /d/f: %v", u, err)
		}
		var keys []string
		for _, read := range cs.takeReads() {
			for _, k := range read {
				if strings.HasPrefix(k, wire.NSMeta.String()+"/") {
					keys = append(keys, k)
				}
			}
		}
		asked = append(asked, keys)
		s.Close()
	}
	if len(asked[0]) != 1 || !slices.Equal(asked[0], asked[1]) || !slices.Equal(asked[0], asked[2]) {
		t.Errorf("alice, bob and carol stat /d/f asking for metadata keys %q: want the same one key", asked)
	}
}
