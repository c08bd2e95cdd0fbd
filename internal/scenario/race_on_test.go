//go:build race

package scenario

// raceEnabled is true when the race detector is active; allocation
// assertions are skipped because race instrumentation allocates.
const raceEnabled = true
