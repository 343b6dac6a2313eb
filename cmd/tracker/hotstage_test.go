package main

import (
	"io"
	"testing"
)

// TestPinned is `go run ./cmd/tracker -hotstage -check
// BENCH_elastic.json` in-process: the experiment must hold its recovery
// invariants and reproduce every pinned cell exactly.
func TestPinned(t *testing.T) {
	rep := measureHotStage(io.Discard)
	if err := hotInvariants(rep); err != nil {
		t.Error(err)
	}
	if err := checkHotPin(rep, "../../BENCH_elastic.json"); err != nil {
		t.Error(err)
	}
}
