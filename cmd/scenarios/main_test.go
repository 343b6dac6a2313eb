package main

import (
	"io"
	"testing"
)

// TestPinned is `go run ./cmd/scenarios -check BENCH_scenarios.json`
// in-process: the default matrix must hold the AIMD differential and
// reproduce every pinned cell exactly.
func TestPinned(t *testing.T) {
	rep := measureAll(defaultSeed, io.Discard)
	if err := differential(rep); err != nil {
		t.Error(err)
	}
	if err := checkPin(rep, "../../BENCH_scenarios.json"); err != nil {
		t.Error(err)
	}
}
