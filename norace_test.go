//go:build !race

package invarnetx

// raceDetector reports whether this test binary runs under -race.
const raceDetector = false
