//go:build race

package invarnetx

// raceEnabled reports whether the race detector is on: under it sync.Pool
// drops a quarter of its Puts on purpose, so allocation pins on pooled paths
// do not hold.
const raceEnabled = true
