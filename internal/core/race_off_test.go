//go:build !race

package core

// raceEnabled reports a -race build, where simulation runs several times
// slower.
const raceEnabled = false
