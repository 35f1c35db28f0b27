package cluster

import (
	"testing"

	"strata/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}
