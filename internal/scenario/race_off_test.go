//go:build !race

package scenario

// raceEnabled gates allocation assertions: the race detector
// instruments allocations, so AllocsPerRun counts are meaningless
// under -race.
const raceEnabled = false
