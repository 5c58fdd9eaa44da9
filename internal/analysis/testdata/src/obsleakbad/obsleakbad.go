// Package obsleakbad is a sharoes-vet test fixture: every observability
// label below routes key material into an exported trace or metric name
// and must be flagged by the keyleak analyzer.
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
	sp.Annotate("key", fmt.Sprintf("%x", k))       // leak: key formatted into the label (and at the Sprintf itself)
	reg.Counter("op." + string(k.Marshal())).Inc() // leak: key bytes concatenated into a metric name
	sk, _ := sharocrypto.NewSigningPair()
	reg.Histogram(string(sk.Marshal())).Observe(time.Millisecond) // leak: marshalled secret as metric name
	sp.End()
}
