//go:build !race

package adversary

// raceEnabled gates allocation assertions: the race detector
// instruments allocations, so AllocsPerRun counts are meaningless
// under -race.
const raceEnabled = false
