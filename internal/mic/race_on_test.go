//go:build race

package mic

// raceEnabled reports a race-detector build, where sync.Pool drops a share
// of its Puts on purpose and allocation pins through the pool cannot hold.
const raceEnabled = true
