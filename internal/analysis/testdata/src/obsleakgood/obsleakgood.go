// Package obsleakgood is a sharoes-vet test fixture: observability
// labels built from fixed operation names and plain numbers are exactly
// what the boundary analyzer must allow.
package obsleakgood

import (
	"strconv"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
)

// Good mirrors the instrumentation idioms the real code uses.
func Good(t *obs.Tracer, reg *obs.Registry, opName string, bytesOut int64) {
	sp := t.Start("rpc."+opName, obs.ClassNetwork)
	sp.Annotate("bytes_out", strconv.FormatInt(bytesOut, 10))
	reg.Counter("ssp.op." + opName).Inc()
	reg.Gauge("ssp.conns").Add(1)
	reg.Histogram("client.op." + opName + ".ns").Observe(time.Millisecond)
	sp.End()
	reg.Gauge("ssp.conns").Add(-1)
}
