// Package obsleakbad is a sharoes-vet test fixture: each Marshal below
// routes a key's raw bytes into an exported trace or metric name, at a
// site boundary does not list, and must be flagged. The key formatted
// into a label prints redacted.
package obsleakbad

import (
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/sharocrypto"
)

// Bad exercises each obs-label leak form.
func Bad(t *obs.Tracer, reg *obs.Registry) {
	k := sharocrypto.NewSymKey()
	sp := t.Start("op", obs.ClassNone)
	sp.Annotate("dek", string(k.Marshal()))        // leak: key bytes laundered through string()
	sp.Annotate("key", fmt.Sprintf("%x", k))       // "[REDACTED]"
	reg.Counter("op." + string(k.Marshal())).Inc() // leak: key bytes concatenated into a metric name
	sk, _ := sharocrypto.NewSigningPair()
	reg.Histogram(string(sk.Marshal())).Observe(time.Millisecond) // leak: marshalled secret as metric name
	sp.End()
}
