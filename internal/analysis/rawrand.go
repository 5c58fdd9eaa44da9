package analysis

import "strconv"

// RawRand flags math/rand imports in non-test files. All key and nonce
// generation must come from crypto/rand; a deterministic generator
// anywhere near key material silently destroys every security property of
// the system. Benchmark-traffic packages that need seeded reproducible
// randomness are allowlisted explicitly.
type RawRand struct{}

// rawRandAllowedPkgs are import-path suffixes of packages permitted to
// import math/rand: deterministic workload generators whose randomness
// shapes benchmark traffic, never key material.
var rawRandAllowedPkgs = []string{
	"internal/workload",
}

// Name implements Analyzer.
func (RawRand) Name() string { return "rawrand" }

// Doc implements Analyzer.
func (RawRand) Doc() string {
	return "math/rand must not be imported outside tests and allowlisted workload generators"
}

// Check implements Analyzer.
func (a RawRand) Check(p *Package) []Finding {
	if hasAnySuffix(p.Path, rawRandAllowedPkgs) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, Finding{
					Analyzer: a.Name(),
					Pos:      p.Fset.Position(imp.Pos()),
					Message:  "import of " + path + ": use crypto/rand (or move deterministic traffic generation into an allowlisted workload package)",
				})
			}
		}
	}
	return out
}
