//go:build race

package thermemu

// raceEnabled reports a -race build, whose instrumentation slows the
// solver several times over and voids wall-clock contracts.
const raceEnabled = true
