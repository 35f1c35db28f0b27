//go:build !race

package otimage

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
