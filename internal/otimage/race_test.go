//go:build race

package otimage

// raceEnabled reports a -race build: the race detector makes sync.Pool drop
// items at random, so pool-reuse assertions only hold without it.
const raceEnabled = true
