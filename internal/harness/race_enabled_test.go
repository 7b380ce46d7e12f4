//go:build race

package harness

// raceEnabled reports whether this test binary was built with the race
// detector, whose ~15-20x slowdown puts a class-W comparison past the CI
// race-stage timeout.
const raceEnabled = true
