// Command scenarios runs the seeded scenario matrix — generated
// pipeline DAGs × adversarial load shapes × estimator variants — on the
// discrete-event clock and pins every cell's metric snapshot to a JSON
// file.
//
// Usage:
//
//	go run ./cmd/scenarios                               # print the matrix
//	go run ./cmd/scenarios -json BENCH_scenarios.json
//	go run ./cmd/scenarios -check BENCH_scenarios.json
//	SCENARIO_SEED=7 go run ./cmd/scenarios               # reseed the matrix
//
// Every cell runs under the virtual clock, which fixes the order in
// which a cell's threads run on any number of processors, so its
// metrics are bit-reproducible across machines. -check therefore
// demands exact equality, catching ANY behavioral drift in the runtime,
// the estimators, or the generator — not just large regressions. A run
// under a seed other than the pinned one fails at once.
//
// The AIMD differential is asserted outright on every (topology, shape)
// pair: the damped estimator must not drop more items than raw
// propagation anywhere in the matrix.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/pin"
	"repro/internal/rand"
	"repro/internal/scenario"
)

// Report is the pinned file format. Go version and CPU count are
// metadata only: virtual-clock cells do not depend on either.
type Report struct {
	GoVersion string                  `json:"go_version"`
	NumCPU    int                     `json:"num_cpu"`
	Seed      uint64                  `json:"seed"`
	Cells     []*scenario.CellMetrics `json:"cells"`
}

// cellSpec is one matrix coordinate.
type cellSpec struct {
	topo, shape, est string
	failures         int
	drain            bool
	elastic          bool
}

const (
	// defaultSeed is the seed BENCH_scenarios.json is pinned at.
	defaultSeed = 1719
	// cellDuration is every cell's virtual run length. The pin does
	// not record it, so it is not a flag.
	cellDuration = 4 * time.Second
)

func main() {
	var (
		seed    = flag.Uint64("seed", uint64(rand.EnvSeed("SCENARIO_SEED", defaultSeed)), "generator seed (SCENARIO_SEED env overrides the default)")
		jsonOut = flag.String("json", "", "write the report to this file")
		check   = flag.String("check", "", "compare against a pinned report and fail on any difference")
	)
	flag.Parse()

	rep := measureAll(*seed, os.Stdout)
	if err := differential(rep); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nAIMD differential holds across %d cells (aimd drops ≤ raw drops everywhere)\n", len(rep.Cells))
	if *jsonOut != "" {
		if err := pin.Write(*jsonOut, rep); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *check != "" {
		if err := checkPin(rep, *check); err != nil {
			fatal("check against %s: %v", *check, err)
		}
		fmt.Printf("check against %s passed (%d cells, exact)\n", *check, len(rep.Cells))
	}
}

// measureAll runs every matrix cell, printing one table row per cell
// to w.
func measureAll(seed uint64, w io.Writer) Report {
	rep := Report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: seed}
	fmt.Fprintf(w, "%-8s %-7s %-5s %6s %9s %9s %6s %7s %10s %9s %8s\n",
		"topology", "shape", "est", "fail", "produced", "emitted", "drops", "ratio", "mu_mean_B", "putp99ms", "restarts")
	for _, c := range matrix() {
		cm := measure(c, seed)
		rep.Cells = append(rep.Cells, cm)
		fmt.Fprintf(w, "%-8s %-7s %-5s %6d %9d %9d %6d %7.3f %10.0f %9.2f %8d\n",
			cm.Topology, cm.Shape, cm.Estimator, c.failures, cm.Produced, cm.Emitted,
			cm.Drops, cm.DropRatio, cm.MUMeanBytes, cm.PutWaitP99Ms, cm.Restarts)
	}
	return rep
}

// differential checks the matrix-wide AIMD differential: damping must
// not cost drops in any cell. This is the headline invariant, asserted
// on every run — pinned numbers age, the inequality does not.
func differential(rep Report) error {
	raw := map[string]int{} // diffKey → raw drops
	for _, cm := range rep.Cells {
		if cm.Estimator == "raw" {
			raw[diffKey(cm)] = cm.Drops
		}
	}
	var errs []error
	for _, cm := range rep.Cells {
		if r, ok := raw[diffKey(cm)]; ok && cm.Estimator == "aimd" && cm.Drops > r {
			errs = append(errs, fmt.Errorf("AIMD REGRESSION %s: aimd dropped %d > raw %d", diffKey(cm), cm.Drops, r))
		}
	}
	return errors.Join(errs...)
}

// checkPin compares the fresh cells to the pinned report exactly.
func checkPin(rep Report, path string) error {
	var pinned Report
	if err := pin.Load(path, &pinned); err != nil {
		return err
	}
	return pin.Compare([]pin.Param{{Name: "seed", Pinned: pinned.Seed, Running: rep.Seed}},
		pinned.Cells, rep.Cells, cellKey)
}

// matrix enumerates the pinned cells: every topology × load shape for
// both estimators, plus failure-injection cells that exercise the
// supervision path on one topology per estimator.
func matrix() []cellSpec {
	var cells []cellSpec
	for _, topo := range scenario.TopologyNames {
		for _, shape := range scenario.ShapeNames {
			for _, est := range []string{"raw", "aimd"} {
				cells = append(cells, cellSpec{topo, shape, est, 0, false, false})
			}
		}
	}
	cells = append(cells,
		cellSpec{"chain", "steady", "raw", 2, false, false},
		cellSpec{"chain", "steady", "aimd", 2, false, false},
		cellSpec{"diamond", "onoff", "raw", 1, false, false},
		cellSpec{"diamond", "onoff", "aimd", 1, false, false},
	)
	// One drain-mode cell per topology: the run ends with a graceful
	// Runtime.Drain at 3/4 of the duration instead of a hard stop, and
	// the pin covers the drain accounting (drained/shed/clean/duration).
	// On the virtual clock a drain is bit-reproducible like everything
	// else — these cells are the regression oracle for that contract.
	for _, topo := range scenario.TopologyNames {
		cells = append(cells, cellSpec{topo, "steady", "aimd", 0, true, false})
	}
	// One elastic cell per topology: the internal/sched control loop
	// supervises the relay stages and replicates the elected bottleneck.
	// The flash shape gives it something to react to (a load spike mid-
	// run); the pin covers the scale schedule (ups/downs/final replicas)
	// alongside the usual metrics, so any drift in the scheduler's
	// sensor, election, or hysteresis shows up as a cell mismatch.
	for _, topo := range scenario.TopologyNames {
		cells = append(cells, cellSpec{topo, "flash", "aimd", 0, false, true})
	}
	return cells
}

// measure generates and runs one cell with the live metrics registry
// attached, so the pin also covers the metrics-series count (the
// deterministic proxy for metrics-subsystem overhead; behavioral
// neutrality is asserted separately in the scenario test suite).
func measure(c cellSpec, seed uint64) *scenario.CellMetrics {
	p := scenario.DefaultParams(seed, c.topo, c.shape)
	p.Duration = cellDuration
	p.Failures = c.failures
	spec, err := scenario.Generate(p)
	if err != nil {
		fatal("generate %s/%s: %v", c.topo, c.shape, err)
	}
	cm, err := scenario.Run(spec, scenario.RunConfig{Estimator: c.est, Metrics: true, Drain: c.drain, Elastic: c.elastic})
	if err != nil {
		fatal("run %s/%s/%s: %v", c.topo, c.shape, c.est, err)
	}
	return cm
}

// diffKey identifies a cell up to the estimator: the unit the AIMD
// differential compares across. Drain and elastic cells carry a suffix
// so they never collide with (and are never compared against) the
// plain runs of the same coordinate.
func diffKey(cm *scenario.CellMetrics) string {
	return fmt.Sprintf("%s/%s/f%d%s", cm.Topology, cm.Shape, cm.Failures, variantSuffix(cm.DrainMode, cm.ElasticMode))
}

func cellKey(cm *scenario.CellMetrics) string {
	return fmt.Sprintf("%s/%s/%s/f%d%s", cm.Topology, cm.Shape, cm.Estimator, cm.Failures, variantSuffix(cm.DrainMode, cm.ElasticMode))
}

func variantSuffix(drain, elastic bool) string {
	switch {
	case drain:
		return "/drain"
	case elastic:
		return "/elastic"
	}
	return ""
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scenarios: "+format+"\n", args...)
	os.Exit(1)
}
