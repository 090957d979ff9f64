//go:build !race

package invarnetx

const raceEnabled = false
