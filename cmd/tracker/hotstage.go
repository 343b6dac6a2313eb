// The -hotstage mode: the elastic-recovery experiment. One color model
// (target-detect-1) has its per-frame compute multiplied by hotFactor —
// the "content blew up one kernel" failure the elastic scheduler exists
// for — and the tracker is measured three ways on the virtual clock:
//
//	balanced:     stock timing, no scheduler   (the reference fps)
//	hot:          hot stage, no scheduler      (the damage)
//	hot-elastic:  hot stage + elastic scheduler (the recovery)
//
// The experiment has one configuration (the constants below), used by
// both -out and -check; the single-run flags -hosts, -duration, -warmup
// and -seed do not reach it. Every run asserts the headline invariants:
// the elastic run recovers at least 90% of the balanced throughput,
// beats the unaided hot run by at least 1.5x, and actually scaled (the
// recovery is the scheduler's doing). -check also demands that every
// cell of BENCH_elastic.json reproduce exactly: the virtual clock makes
// a cell repeat on any number of processors.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/pin"
	"repro/internal/sched"
	"repro/internal/tracker"
)

// The hot-stage experiment's configuration, pinned in BENCH_elastic.json.
const (
	hotHosts   = 1
	hotSeconds = 60
	hotWarmup  = 10
	hotSeed    = 42
	hotFactor  = 3
)

// hotCell is one measured configuration.
type hotCell struct {
	Name         string  `json:"name"` // balanced | hot | hot-elastic
	FPS          float64 `json:"fps"`
	Outputs      int     `json:"outputs"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	ScaleUps     int64   `json:"scale_ups"`
	ScaleDowns   int64   `json:"scale_downs"`
	// ReplicasEnd is the detectors' live replica count at the
	// scheduler's final tick before the run ended.
	ReplicasEnd int `json:"replicas_end"`
}

// hotReport is the BENCH_elastic.json pin format.
type hotReport struct {
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Seconds   float64   `json:"virtual_seconds"`
	Warmup    float64   `json:"warmup_seconds"`
	Seed      int64     `json:"seed"`
	HotFactor float64   `json:"hot_factor"`
	Cells     []hotCell `json:"cells"`
	// RecoveryRatio is fps(hot-elastic) / fps(balanced) — the number the
	// scheduler is judged by.
	RecoveryRatio float64 `json:"recovery_ratio"`
}

// elasticConfig is the scheduler configuration the experiment (and the
// README quickstart) uses: defend a 250ms detector period — comfortably
// above both stock detector costs (185/205ms ± log-normal noise), far
// below the induced hot cost — and scale only the two detection
// kernels, the tracker's data-parallel stages. The margin matters: a
// target inside a stage's noise band parks that stage at the hysteresis
// edge, where even sustain counters eventually admit a flap.
func elasticConfig() sched.Config {
	return sched.Config{
		TargetPeriod: 250 * time.Millisecond,
		Stages:       []string{"target-detect-1", "target-detect-2"},
		// The tracker's periods swing hard (complexity walk ±18%,
		// log-normal noise, shared-bus pressure from every extra
		// incarnation), so retirement demands 2x headroom: a replica is
		// only released if the projected period without it stays under
		// half the target. The default 0.9 band — right for low-variance
		// pipelines — would breathe at this noise level.
		DownBand: 0.5,
	}
}

// measureHotCell runs one configuration of the experiment; factor 0
// leaves the hot stage at its stock cost.
func measureHotCell(name string, factor float64, elastic bool) hotCell {
	cfg := tracker.Config{
		Hosts:     hotHosts,
		Seed:      hotSeed,
		Policy:    core.PolicyMin(),
		Collector: gc.NewDeadTimestamp(),
		HotFactor: factor,
	}
	var reg *metrics.Registry
	if elastic {
		ec := elasticConfig()
		cfg.Elastic = &ec
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	app, err := tracker.New(cfg)
	if err != nil {
		fatalHot("build %s: %v", name, err)
	}
	a, err := app.Run(hotSeconds*time.Second, hotWarmup*time.Second)
	if err != nil {
		fatalHot("run %s: %v", name, err)
	}
	cell := hotCell{
		Name:         name,
		FPS:          a.ThroughputFPS,
		Outputs:      a.Outputs,
		LatencyP50Ms: float64(a.LatencyP50) / float64(time.Millisecond),
	}
	if reg != nil {
		for _, stage := range []string{"target-detect-1", "target-detect-2"} {
			ls := metrics.Labels{"stage": stage}
			cell.ScaleUps += reg.Counter(sched.MetricScaleUps, "", ls).Value()
			cell.ScaleDowns += reg.Counter(sched.MetricScaleDowns, "", ls).Value()
			// The gauge holds the scheduler's last-tick count — the live
			// registry itself has already drained by the time Run returns.
			cell.ReplicasEnd += int(reg.Gauge(sched.MetricReplicas, "", ls).Value())
		}
	}
	return cell
}

// runHotStage executes the experiment, asserts its invariants and
// handles -out/-check.
func runHotStage(outPath, checkPath string) {
	rep := measureHotStage(os.Stdout)
	if err := hotInvariants(rep); err != nil {
		fatalHot("%v", err)
	}
	if outPath != "" {
		if err := pin.Write(outPath, rep); err != nil {
			fatalHot("%v", err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if checkPath != "" {
		if err := checkHotPin(rep, checkPath); err != nil {
			fatalHot("check against %s: %v", checkPath, err)
		}
		fmt.Printf("check against %s passed (exact)\n", checkPath)
	}
}

// measureHotStage runs the three cells, printing a table to w.
func measureHotStage(w io.Writer) hotReport {
	rep := hotReport{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Seconds:   hotSeconds,
		Warmup:    hotWarmup,
		Seed:      hotSeed,
		HotFactor: hotFactor,
	}
	fmt.Fprintf(w, "elastic recovery experiment: hotfactor=%d hosts=%d duration=%ds seed=%d\n\n",
		hotFactor, hotHosts, hotSeconds, hotSeed)
	fmt.Fprintf(w, "%-12s %7s %8s %12s %9s %11s %9s\n",
		"cell", "fps", "outputs", "p50-lat(ms)", "scale-ups", "scale-downs", "replicas")
	for _, c := range []struct {
		name    string
		factor  float64
		elastic bool
	}{{"balanced", 0, false}, {"hot", hotFactor, false}, {"hot-elastic", hotFactor, true}} {
		cell := measureHotCell(c.name, c.factor, c.elastic)
		fmt.Fprintf(w, "%-12s %7.2f %8d %12.0f %9d %11d %9d\n",
			cell.Name, cell.FPS, cell.Outputs, cell.LatencyP50Ms, cell.ScaleUps, cell.ScaleDowns, cell.ReplicasEnd)
		rep.Cells = append(rep.Cells, cell)
	}
	balanced, hot, elastic := rep.Cells[0], rep.Cells[1], rep.Cells[2]
	if balanced.FPS > 0 {
		rep.RecoveryRatio = elastic.FPS / balanced.FPS
	}
	fmt.Fprintf(w, "\nrecovery ratio: %.3f (hot-elastic %.2f fps / balanced %.2f fps; unaided hot ran %.2f)\n",
		rep.RecoveryRatio, elastic.FPS, balanced.FPS, hot.FPS)
	return rep
}

// hotInvariants checks, on the fresh numbers, the claims the scheduler
// exists for.
func hotInvariants(rep hotReport) error {
	hot, elastic := rep.Cells[1], rep.Cells[2]
	var errs []error
	if rep.RecoveryRatio < 0.90 {
		errs = append(errs, fmt.Errorf("INVARIANT recovery ratio %.3f below 0.90", rep.RecoveryRatio))
	}
	if elastic.FPS < 1.5*hot.FPS {
		errs = append(errs, fmt.Errorf("INVARIANT hot-elastic %.2f fps not 1.5x above unaided hot %.2f — the scheduler did not help",
			elastic.FPS, hot.FPS))
	}
	if elastic.ScaleUps == 0 {
		errs = append(errs, errors.New("INVARIANT hot-elastic never scaled up — the recovery is not the scheduler's doing"))
	}
	return errors.Join(errs...)
}

// checkHotPin compares the fresh report to the pinned one exactly.
func checkHotPin(rep hotReport, path string) error {
	var pinned hotReport
	if err := pin.Load(path, &pinned); err != nil {
		return err
	}
	return pin.Compare([]pin.Param{
		{Name: "virtual_seconds", Pinned: pinned.Seconds, Running: rep.Seconds},
		{Name: "warmup_seconds", Pinned: pinned.Warmup, Running: rep.Warmup},
		{Name: "seed", Pinned: pinned.Seed, Running: rep.Seed},
		{Name: "hot_factor", Pinned: pinned.HotFactor, Running: rep.HotFactor},
	}, pinned.Cells, rep.Cells, func(c hotCell) string { return c.Name })
}

func fatalHot(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracker -hotstage: "+format+"\n", args...)
	os.Exit(1)
}
