//go:build race

package main

// Under the race detector goroutines run long enough to be preempted in the
// middle of the virtual clock's yield-based quiescence check, so a tracker
// run no longer repeats (ROADMAP item 1). The smoke test then reports the
// repeat oracle's verdict instead of asserting it.
const raceDetector = true
