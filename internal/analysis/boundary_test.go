package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

func TestBoundary(t *testing.T) {
	bad := runOne(t, Boundary{}, filepath.Join("boundarybad", "internal", "client"))
	wantSubstr := []string{
		"SSP read ssp.Get in client.Client.Fetch",
		"SSP read ssp.BatchGet in client.Client.Prefetch", // the async-goroutine read
		"SSP read ssp.List in client.Client.Purge",
		"wire-frame read wire.DecodeV2",
		"raw secret sharocrypto.SymKey.Marshal",
		"plaintext of a key-bearing object meta.Metadata.Encode", // a new object's keys in a KV
		"raw secret sharocrypto.PrivateKey.Marshal",
		"SSP read ssp.Get in a package-level declaration",
	}
	if len(bad) != len(wantSubstr) {
		t.Fatalf("boundarybad: got %d findings, want %d:\n%s", len(bad), len(wantSubstr), findingsText(bad))
	}
	for i, f := range bad {
		if !strings.Contains(f.Message, wantSubstr[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantSubstr[i])
		}
	}
	// A listed site is allowed its listed number of calls, no more.
	if got := runOne(t, Boundary{}, filepath.Join("boundarybad", "internal", "layout")); len(got) != 1 || got[0].Pos.Line != 16 {
		t.Errorf("boundarybad/internal/layout: want the second read at line 16 only:\n%s", findingsText(got))
	}
	if good := runOne(t, Boundary{}, filepath.Join("boundarygood", "internal", "client")); len(good) != 0 {
		t.Fatalf("boundarygood: unexpected findings:\n%s", findingsText(good))
	}
}

// TestUnbuildableShapes pins the half of the trust boundary that is in
// types: each fixture under testdata/src/unbuildable must fail to
// type-check with the repo's own loader, and the two opaque types keep
// their bytes unexported. A SymKey turned back into an array or made
// comparable, a Sealed turned into a []byte type, or either given an
// exported field, fails here.
func TestUnbuildableShapes(t *testing.T) {
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	for dir, want := range map[string]string{
		"keyslice":    "cannot slice k (variable of struct type",
		"keyequal":    "a == b (struct containing [0]func() cannot be compared)",
		"sealedbytes": "cannot convert blob (variable of struct type",
	} {
		_, err := loader.LoadDir(filepath.Join("testdata", "src", "unbuildable", dir))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: load error %v, want one containing %q", dir, err, want)
		}
	}
	for dir, name := range map[string]string{"sharocrypto": "SymKey", "layout": "Sealed"} {
		p := fixturePkg(t, filepath.Join("..", "..", "..", dir))
		obj := p.Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("%s.%s not found", dir, name)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("%s.%s is a %s, want a struct with unexported fields", dir, name, obj.Type().Underlying())
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Exported() {
				t.Errorf("%s.%s exports field %s", dir, name, st.Field(i).Name())
			}
		}
	}
}
