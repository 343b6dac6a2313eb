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
// Every cell runs under the virtual clock, so its metrics are
// bit-reproducible across machines: -check therefore defaults to exact
// equality (tolerance 0), catching ANY behavioral drift in the runtime,
// the estimators, or the generator — not just large regressions. A
// nonzero -tolerance relaxes the comparison to the headline rates for
// bisecting an intentional behavior change. The clock fixes the order
// in which a cell's threads run, on any number of processors, so a cell
// that misses its pin is a regression outright; it is not re-measured.
//
// The AIMD differential is asserted outright on every (topology, shape)
// pair: the damped estimator must not drop more items than raw
// propagation anywhere in the matrix.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

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

func main() {
	var (
		seed      = flag.Uint64("seed", uint64(rand.EnvSeed("SCENARIO_SEED", 1719)), "generator seed (SCENARIO_SEED env overrides the default)")
		duration  = flag.Duration("duration", 4*time.Second, "virtual run length per cell")
		jsonOut   = flag.String("json", "", "write the report to this file")
		check     = flag.String("check", "", "compare against a pinned report and fail on drift")
		tolerance = flag.Float64("tolerance", 0, "allowed fractional drift under -check (0 = exact equality)")
	)
	flag.Parse()

	cells := matrix()
	var rep Report
	rep.GoVersion = runtime.Version()
	rep.NumCPU = runtime.NumCPU()
	rep.Seed = *seed

	fmt.Printf("%-8s %-7s %-5s %6s %9s %9s %6s %7s %10s %9s %8s\n",
		"topology", "shape", "est", "fail", "produced", "emitted", "drops", "ratio", "mu_mean_B", "putp99ms", "restarts")
	drops := map[string]int{} // (topo/shape/failures) → drops per estimator, for the differential
	for _, c := range cells {
		cm := measure(c, *seed, *duration)
		rep.Cells = append(rep.Cells, cm)
		fmt.Printf("%-8s %-7s %-5s %6d %9d %9d %6d %7.3f %10.0f %9.2f %8d\n",
			cm.Topology, cm.Shape, cm.Estimator, c.failures, cm.Produced, cm.Emitted,
			cm.Drops, cm.DropRatio, cm.MUMeanBytes, cm.PutWaitP99Ms, cm.Restarts)
		drops[diffKey(c)+"/"+c.est] = cm.Drops
	}

	// The matrix-wide AIMD differential: damping must not cost drops in
	// any cell. This is the headline invariant, asserted on every run —
	// pinned numbers age, the inequality does not.
	violated := false
	for _, c := range cells {
		if c.est != "aimd" {
			continue
		}
		raw, ok := drops[diffKey(c)+"/raw"]
		if !ok {
			continue
		}
		if aimd := drops[diffKey(c)+"/aimd"]; aimd > raw {
			violated = true
			fmt.Fprintf(os.Stderr, "AIMD REGRESSION %s: aimd dropped %d > raw %d\n", diffKey(c), aimd, raw)
		}
	}
	if violated {
		os.Exit(1)
	}
	fmt.Printf("\nAIMD differential holds across %d cells (aimd drops ≤ raw drops everywhere)\n", len(cells))

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *jsonOut, err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	if *check != "" {
		checkAgainst(*check, &rep, *seed, *tolerance)
	}
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
func measure(c cellSpec, seed uint64, duration time.Duration) *scenario.CellMetrics {
	p := scenario.DefaultParams(seed, c.topo, c.shape)
	p.Duration = duration
	p.Failures = c.failures
	spec, err := scenario.Generate(p)
	if err != nil {
		fatal("generate %s: %v", diffKey(c), err)
	}
	cm, err := scenario.Run(spec, scenario.RunConfig{Estimator: c.est, Metrics: true, Drain: c.drain, Elastic: c.elastic})
	if err != nil {
		fatal("run %s/%s: %v", diffKey(c), c.est, err)
	}
	return cm
}

// diffKey identifies a cell up to the estimator: the unit the AIMD
// differential compares across. Drain and elastic cells carry a suffix
// so they never collide with (and are never compared against) the
// plain runs of the same coordinate.
func diffKey(c cellSpec) string {
	return fmt.Sprintf("%s/%s/f%d%s", c.topo, c.shape, c.failures, variantSuffix(c.drain, c.elastic))
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

// checkAgainst compares fresh cells to the pinned report. Tolerance 0
// demands byte-identical metric snapshots (the determinism contract);
// a nonzero tolerance compares only emitted/drops rates fractionally.
func checkAgainst(path string, rep *Report, seed uint64, tolerance float64) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal("read %s: %v", path, err)
	}
	var pinned Report
	if err := json.Unmarshal(buf, &pinned); err != nil {
		fatal("parse %s: %v", path, err)
	}
	if pinned.Seed != seed {
		fatal("pinned seed %d, running seed %d: a -check run must use the pinned seed", pinned.Seed, seed)
	}
	base := make(map[string]*scenario.CellMetrics, len(pinned.Cells))
	for _, cm := range pinned.Cells {
		base[cellKey(cm)] = cm
	}

	failed := false
	for _, cm := range rep.Cells {
		want, ok := base[cellKey(cm)]
		if !ok {
			continue // new cell, nothing pinned yet
		}
		if cellMatches(cm, want, tolerance) {
			continue
		}
		failed = true
		got, _ := json.Marshal(cm)
		exp, _ := json.Marshal(want)
		fmt.Fprintf(os.Stderr, "REGRESSION %s:\n  got  %s\n  want %s\n", cellKey(cm), got, exp)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("check against %s passed (%d cells, tolerance %.0f%%)\n", path, len(pinned.Cells), tolerance*100)
}

// cellMatches compares one cell to its pin. Exact mode compares the
// whole JSON snapshot; tolerant mode compares the headline rates.
func cellMatches(got, want *scenario.CellMetrics, tolerance float64) bool {
	if tolerance == 0 {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		return string(a) == string(b)
	}
	return withinFrac(float64(got.Emitted), float64(want.Emitted), tolerance) &&
		withinFrac(float64(got.Drops), float64(want.Drops), tolerance)
}

func withinFrac(got, want, tolerance float64) bool {
	if want == 0 {
		return got == 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= want*tolerance
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scenarios: "+format+"\n", args...)
	os.Exit(1)
}
