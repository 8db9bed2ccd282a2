//go:build race

package registry

// raceEnabled turns timing assertions off: the race detector slows every
// discoverer several-fold.
const raceEnabled = true
