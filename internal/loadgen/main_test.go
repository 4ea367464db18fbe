package loadgen

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine: every
// worker, predict sampler and wire connection RunLoad starts must be gone
// once it returns and its peer has closed.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
