// Package testseed gives the randomized tests of every package that imports
// it one -seed flag, so a failure replays from the seed it logged:
//
//	go test ./internal/cluster -run TestDBSCANPropertyInvariants -seed=N
package testseed

import (
	"flag"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var seed = flag.Int64("seed", 0, "seed for the package's randomized tests (0 picks one from the clock)")

// Seed returns the -seed flag, or a seed from the clock when it is 0, and
// logs it so a failure replays with -seed=N.
func Seed(tb testing.TB) int64 {
	tb.Helper()
	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}
	tb.Logf("seed %d (replay with -seed=%d)", s, s)
	return s
}

// Quick is a testing/quick config of maxCount inputs drawn from Seed.
func Quick(tb testing.TB, maxCount int) *quick.Config {
	tb.Helper()
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(Seed(tb)))}
}
