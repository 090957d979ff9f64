//go:build !race

package mic

const raceEnabled = false
