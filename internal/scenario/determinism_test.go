package scenario

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestDeterministicReruns is the determinism oracle: every generated
// scenario, run twice with the same seed, must produce byte-identical
// metric snapshots. This is the contract the BENCH_scenarios.json pin
// and the whole regression net stand on, so it runs across topologies,
// shapes, estimators, and failure injection — and CI repeats it under
// the race detector (-race -count=2 in the chaos job) and at
// GOMAXPROCS=8, where any wake order the virtual clock does not fix
// (a body blocking on something other than the clock) would surface as
// a diff.
func TestDeterministicReruns(t *testing.T) {
	type cell struct {
		topo, shape, est string
		failures         int
	}
	var cells []cell
	for _, topo := range TopologyNames {
		for _, shape := range []string{"steady", "onoff"} {
			for _, est := range []string{"raw", "aimd"} {
				cells = append(cells, cell{topo, shape, est, 0})
			}
		}
	}
	// Failure injection and the remaining shapes ride on one topology
	// each to keep the oracle fast.
	cells = append(cells,
		cell{"chain", "sine", "aimd", 0},
		cell{"diamond", "flash", "raw", 0},
		cell{"fanout", "drift", "aimd", 0},
		cell{"chain", "steady", "raw", 2},
	)

	for _, c := range cells {
		c := c
		name := fmt.Sprintf("%s/%s/%s/fail%d", c.topo, c.shape, c.est, c.failures)
		t.Run(name, func(t *testing.T) {
			p := DefaultParams(1719, c.topo, c.shape)
			p.Duration = 4 * time.Second
			p.Failures = c.failures
			var snaps [2][]byte
			for i := range snaps {
				spec, err := Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				cm, err := Run(spec, RunConfig{Estimator: c.est})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(cm)
				if err != nil {
					t.Fatal(err)
				}
				snaps[i] = b
			}
			if string(snaps[0]) != string(snaps[1]) {
				t.Fatalf("same seed, different metrics:\nrun1: %s\nrun2: %s", snaps[0], snaps[1])
			}
		})
	}
}

// TestDeterministicDrainReruns extends the oracle to drain mode: a
// graceful Runtime.Drain on the virtual clock must be as
// bit-reproducible as a hard stop — same seed, byte-identical
// drained/shed/clean/duration accounting across reruns. A chain cell
// must additionally drain clean with zero shed: a linear FIFO pipeline
// whose sources quiesce has nothing left to lose, so any shed item is
// a flush bug, not load.
func TestDeterministicDrainReruns(t *testing.T) {
	for _, topo := range TopologyNames {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			p := DefaultParams(1719, topo, "steady")
			p.Duration = 4 * time.Second
			var snaps [2]*CellMetrics
			var raw [2][]byte
			for i := range snaps {
				spec, err := Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				cm, err := Run(spec, RunConfig{Estimator: "aimd", Drain: true})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(cm)
				if err != nil {
					t.Fatal(err)
				}
				snaps[i], raw[i] = cm, b
			}
			if string(raw[0]) != string(raw[1]) {
				t.Fatalf("same seed, different drain metrics:\nrun1: %s\nrun2: %s", raw[0], raw[1])
			}
			cm := snaps[0]
			if !cm.DrainMode {
				t.Fatal("drain cell did not set drain_mode")
			}
			if !cm.DrainClean {
				t.Errorf("drain missed its deadline: %+v", cm)
			}
			if topo == "chain" && cm.DrainShed != 0 {
				t.Errorf("clean chain drain shed %d items, want 0", cm.DrainShed)
			}
		})
	}
}

// TestDeterministicSeedSensitivity is the converse guard: a different
// seed must actually change the measured outcome, or the oracle above
// is vacuously comparing constants.
func TestDeterministicSeedSensitivity(t *testing.T) {
	run := func(seed uint64) []byte {
		p := DefaultParams(seed, "chain", "onoff")
		p.Duration = 3 * time.Second
		spec, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := Run(spec, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(cm)
		return b
	}
	if string(run(1719)) == string(run(1720)) {
		t.Fatal("different seeds produced byte-identical metrics")
	}
}
