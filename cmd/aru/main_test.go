package main

import (
	"io"
	"testing"
)

// TestPinned is `go run ./cmd/aru -check BENCH_aru.json` in-process:
// the default matrix must satisfy the headline invariant and reproduce
// the pin exactly.
func TestPinned(t *testing.T) {
	rep := measureAll(defaultSeconds, defaultSeed, io.Discard)
	if err := invariant(rep); err != nil {
		t.Error(err)
	}
	if err := checkPin(rep, "../../BENCH_aru.json"); err != nil {
		t.Error(err)
	}
}
