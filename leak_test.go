package sharoes

import (
	"testing"

	"github.com/sharoes/sharoes/internal/leakcheck"
)

// TestMain fails the test binary if its tests pass but leave goroutines
// of the module running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
