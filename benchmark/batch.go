package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// The three workloads whose thread bodies live in the repository: the
// paper's tracker on the virtual and on the wall clock, and the pinned
// scenario matrix. The first and the last are batch jobs — equal passes of
// fixed work, repeated until the time is up — so their rate estimators run
// over passes where the timed workloads' run over windows.

// timed runs one unit of a pass and records what it cost.
func timed(job func() (items int64, err error)) (unit, error) {
	t0, c0 := time.Now(), cpuNow()
	n, err := job()
	return unit{items: n, wall: time.Since(t0), cpu: cpuNow() - c0}, err
}

// measurePasses repeats pass until seconds have gone by, and at least once.
func measurePasses(seconds float64, pass func() ([]unit, error)) ([][]unit, error) {
	var passes [][]unit
	for start := time.Now(); len(passes) == 0 || time.Since(start).Seconds() < seconds; {
		units, err := pass()
		if err != nil {
			return nil, err
		}
		passes = append(passes, units)
	}
	return passes, nil
}

// measureBatch is the batch workloads' measured interval: passes for the
// whole time untraced, or a third of it as the untraced reference and the
// rest with spans on. It returns the measured passes.
func measureBatch(cfg runCfg, rep *report, o *outcome, pass func() ([]unit, error)) ([][]unit, error) {
	m0, g0 := memNow()
	measured := cfg.seconds
	if cfg.trace {
		ref, err := measurePasses(cfg.seconds/3, pass)
		if err != nil {
			return nil, err
		}
		o.ref = fromPasses(ref)
		measured -= cfg.seconds / 3
		rep.spans.on.Store(true)
	}
	passes, err := measurePasses(measured, pass)
	if err != nil {
		return nil, err
	}
	rep.spans.stopSampling()
	o.r = fromPasses(passes)
	m1, g1 := memNow()
	o.mallocs, o.gcs = m1-m0, g1-g0
	return passes, nil
}

// --- tracker-virtual --------------------------------------------------------

type trackerCase struct {
	hosts  int
	policy core.Policy
}

// trackerCases is one pass: the paper's two configurations under no ARU,
// ARU-min and ARU-max.
var trackerCases = []trackerCase{
	{1, core.PolicyOff()}, {1, core.PolicyMin()}, {1, core.PolicyMax()},
	{5, core.PolicyOff()}, {5, core.PolicyMin()}, {5, core.PolicyMax()},
}

// trackerSpan is the virtual length of one tracker run and the warm-up its
// analysis leaves out.
func trackerSpan(cfg runCfg) (d, warm time.Duration) {
	return time.Duration(cfg.pick(300, 30)) * time.Second, time.Duration(cfg.pick(15, 5)) * time.Second
}

// runTracker builds, runs and analyses one virtual-clock tracker; events is
// the number of trace events the run recorded.
func runTracker(c trackerCase, seed int64, d, warm time.Duration, sb *spanBuf) (a *trace.Analysis, events int, err error) {
	it := sb.job()
	app, err := tracker.New(tracker.Config{Hosts: c.hosts, Seed: seed, Policy: c.policy})
	if err != nil {
		return nil, 0, err
	}
	it.mark("tracker.build", seed)
	if err := app.Runtime.RunFor(d); err != nil {
		return nil, 0, err
	}
	it.mark("tracker.run", seed)
	a, err = trace.Analyze(app.Recorder, trace.AnalyzeOptions{From: warm, To: d})
	it.mark("trace.analyze", seed)
	it.end("tracker.job", seed)
	return a, app.Recorder.Len(), err
}

// runTrackerVirtual repeats the paper's experiment on the virtual clock.
// Every pass replays the same six runs from the same seed, so the analyses
// must repeat exactly from pass to pass, and the latency reported — the
// pipeline-clock source-to-display latency of the two ARU-min runs — is the
// same whatever the number of passes the time allowed.
func runTrackerVirtual(cfg runCfg, rep *report) error {
	d, warm := trackerSpan(cfg)
	sl := newSpanLog()
	rep.spans = sl
	sb := sl.thread(batchSpans)

	// Set-up: discarded runs of the two heaviest configurations (no ARU, so
	// the most items), which grow the heap and fault in the code the
	// measured passes use.
	var o outcome
	for i := 0; i < cfg.pick(3, 1); i++ {
		t0 := time.Now()
		for _, c := range []trackerCase{trackerCases[3], trackerCases[0]} {
			if _, _, err := runTracker(c, cfg.seed, d, warm, sb); err != nil {
				return err
			}
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	var first, last []*trace.Analysis
	_, err := measureBatch(cfg, rep, &o, func() ([]unit, error) {
		units := make([]unit, len(trackerCases))
		as := make([]*trace.Analysis, len(trackerCases))
		for i, c := range trackerCases {
			var err error
			units[i], err = timed(func() (int64, error) {
				a, _, err := runTracker(c, cfg.seed, d, warm, sb)
				if err != nil {
					return 0, err
				}
				as[i] = a
				return int64(a.Outputs), nil
			})
			if err != nil {
				return nil, err
			}
			checkTracker(rep, fmt.Sprintf("hosts=%d/%s", c.hosts, c.policy.Name()), as[i])
		}
		if first == nil {
			first = as
		}
		last = as
		for i := range as {
			if fingerprint(as[i]) != fingerprint(first[i]) {
				rep.failed++
				rep.failf("run %d did not repeat: %s then %s", i, fingerprint(first[i]), fingerprint(as[i]))
			}
		}
		return units, nil
	})
	if err != nil {
		return err
	}
	for _, h := range []int{0, 3} {
		checkARUSaves(rep, fmt.Sprintf("hosts=%d", trackerCases[h].hosts), last[h], last[h+1])
	}
	min1, min5 := last[1], last[4]
	us := func(a, b time.Duration) float64 { return float64(a+b) / 2 / 1e3 }
	o.latUs = []float64{
		us(min1.LatencyP50, min5.LatencyP50), us(min1.LatencyP95, min5.LatencyP95), us(min1.LatencyP99, min5.LatencyP99),
	}
	o.skippedFrac = float64(min1.Skips+min5.Skips) / float64(min1.Skips+min5.Skips+min1.Gets+min5.Gets)

	// The live heap is what survives the passes once their results are
	// dropped: a leak guard. Holding an Analysis across the collection reads
	// 3 or 7 MB for one run (26 or 30 MB for all six) depending on which side
	// of a slice-growth step the seed's item count falls, which no bound
	// survives.
	first, last, min1, min5 = nil, nil, nil, nil
	o.heapMB = liveHeapMB()
	o.buildMs = median(durations(sl.all())["tracker.build"]) / 1e6
	o.emit(cfg, rep)
	return nil
}

// --- tracker-real -----------------------------------------------------------

const realScale = 20 // pipeline seconds per wall second

// runTrackerReal runs the tracker in its production posture: one host,
// ARU-min, the metrics registry and its sampler on, the camera pacing the
// source open-loop against the wall clock sped up twenty times. Latency is
// source stamp to display on the pipeline's clock.
func runTrackerReal(cfg runCfg, rep *report) error {
	warm := time.Duration(cfg.pick(15, 4)) * time.Second // pipeline time
	sl := newSpanLog()
	rep.spans = sl
	// The four spans of this job are recorded on untraced runs too: they
	// sit outside the pipeline and cost four clock reads.
	sl.on.Store(true)
	it := sl.thread(batchSpans).job()

	var o outcome
	var app *tracker.App
	var reg *metrics.Registry
	for i := 0; i < cfg.pick(3, 1); i++ {
		if app != nil {
			app.Runtime.Stop()
			if err := app.Runtime.Wait(); err != nil {
				return fmt.Errorf("discarded set-up: %w", err)
			}
		}
		t0 := time.Now()
		it.resume()
		reg = metrics.NewRegistry()
		var err error
		app, err = tracker.New(tracker.Config{Hosts: 1, Scale: realScale, Seed: cfg.seed, Policy: core.PolicyMin(), Metrics: reg})
		if err != nil {
			return err
		}
		if err := app.Runtime.Start(); err != nil {
			return err
		}
		o.buildMs = float64(time.Since(t0).Microseconds()) / 1e3
		it.mark("tracker.build", cfg.seed)
		time.Sleep(warm / realScale)
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	clk := app.Runtime.Clock()
	waited0 := blockedSeconds(reg)
	m0, g0 := memNow()
	it.resume()
	// Thirty-five displays make a half-second window. They are only known
	// once the trace is analysed, so each window edge notes the pipeline
	// clock and the counts are filled in below.
	var marks []time.Duration
	edges := measureWindows(cfg.seconds, time.Second/2, func() int64 {
		marks = append(marks, clk.Now())
		return 0
	})
	from, to := marks[0], marks[len(marks)-1]
	it.mark("tracker.run", cfg.seed)
	m1, g1 := memNow()
	o.mallocs, o.gcs = m1-m0, g1-g0
	o.waitedS = (blockedSeconds(reg) - waited0) / realScale // the histograms run on the pipeline's clock
	o.snap = app.Runtime.Snapshot()
	o.consumers, o.producers = 5, 5

	it.resume()
	stop0 := time.Now()
	app.Runtime.Stop()
	if err := app.Runtime.Wait(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	o.stopMs = float64(time.Since(stop0).Microseconds()) / 1e3
	it.mark("runtime.stop_wait", cfg.seed)
	a, err := trace.Analyze(app.Recorder, trace.AnalyzeOptions{From: from, To: to})
	if err != nil {
		return err
	}
	it.mark("trace.analyze", cfg.seed)
	it.end("tracker.job", cfg.seed)
	o.heapMB = liveHeapMB()
	runtime.KeepAlive(app)

	checkTracker(rep, "tracker-real", a)
	rep.attempted += int64(a.Outputs)
	for i, out := 0, 0; i < len(edges); i++ {
		for out < len(a.OutputTimes) && a.OutputTimes[out] < marks[i] {
			out++
		}
		edges[i].items = int64(out)
	}
	o.r = fromWindows(edges)
	o.ref = o.r // nothing in the pipeline is traced, so there is no overhead to measure
	lat := make([]int64, len(a.Latencies))
	for i, l := range a.Latencies {
		lat[i] = int64(l)
	}
	o.latUs = latencyUs(lat, 0.5, 0.95, 0.99)
	o.skippedFrac = float64(a.Skips) / float64(a.Skips+a.Gets)
	o.emit(cfg, rep)
	return nil
}

// --- scenario-matrix ----------------------------------------------------------

// scenarioDuration is the virtual run length the pinned cells were made at
// (cmd/scenarios' default).
const scenarioDuration = 4 * time.Second

// loadPins reads the pinned scenario cells.
func loadPins(root string) ([]*scenario.CellMetrics, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCH_scenarios.json"))
	if err != nil {
		return nil, err
	}
	var pinned struct {
		Cells []*scenario.CellMetrics `json:"cells"`
	}
	if err := json.Unmarshal(buf, &pinned); err != nil {
		return nil, fmt.Errorf("BENCH_scenarios.json: %w", err)
	}
	if len(pinned.Cells) == 0 {
		return nil, fmt.Errorf("BENCH_scenarios.json pins no cells")
	}
	return pinned.Cells, nil
}

// runCell rebuilds one cell from the fields of its own pin.
func runCell(pin *scenario.CellMetrics, sb *spanBuf) (*scenario.CellMetrics, error) {
	it := sb.job()
	p := scenario.DefaultParams(pin.Seed, pin.Topology, pin.Shape)
	p.Duration = scenarioDuration
	p.Failures = pin.Failures
	spec, err := scenario.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generate %s/%s: %w", pin.Topology, pin.Shape, err)
	}
	it.mark("scenario.generate", int64(pin.Seed))
	cm, err := scenario.Run(spec, scenario.RunConfig{Estimator: pin.Estimator, Metrics: true, Drain: pin.DrainMode, Elastic: pin.ElasticMode})
	it.mark("scenario.run", int64(pin.Seed))
	it.end("scenario.cell", int64(pin.Seed))
	return cm, err
}

// checkedCell runs a cell and compares it to its pin, byte for byte. A miss
// is re-run, best of three as cmd/scenarios does; a cell that misses and
// then matches is still a failure, because the pin's whole point is that a
// virtual-clock cell repeats.
func checkedCell(rep *report, pin *scenario.CellMetrics, sb *spanBuf) (*scenario.CellMetrics, error) {
	cm, err := runCell(pin, sb)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	if cellEqual(cm, pin) {
		return cm, nil
	}
	rep.failed++
	for retry := 0; retry < 2; retry++ {
		again, err := runCell(pin, sb)
		if err != nil {
			return nil, err
		}
		if cellEqual(again, pin) {
			rep.failf("cell %s/%s/%s missed its pin, then matched it on a re-run: not deterministic", pin.Topology, pin.Shape, pin.Estimator)
			return again, nil
		}
	}
	got, _ := json.Marshal(cm)
	rep.failf("cell %s/%s/%s differs from its pin: %s", pin.Topology, pin.Shape, pin.Estimator, got)
	return cm, nil
}

// runScenarioMatrix replays the pinned matrix. A pass is every cell once,
// starting at a cell chosen by the seed; latency is the wall time a
// developer waits for one cell, so its percentiles run over the cells.
func runScenarioMatrix(cfg runCfg, rep *report) error {
	pins, err := loadPins(cfg.root)
	if err != nil {
		return err
	}
	if cfg.toy {
		pins = pins[:4]
	}
	sl := newSpanLog()
	rep.spans = sl
	sb := sl.thread(batchSpans)

	// Set-up: the first half of the matrix, discarded.
	var o outcome
	for i := 0; i < cfg.pick(3, 1); i++ {
		t0 := time.Now()
		for _, pin := range pins[:len(pins)/2] {
			if _, err := runCell(pin, sb); err != nil {
				return err
			}
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	var last []*scenario.CellMetrics
	start := int(uint64(cfg.seed) % uint64(len(pins)))
	passes, err := measureBatch(cfg, rep, &o, func() ([]unit, error) {
		units := make([]unit, len(pins))
		cells := make([]*scenario.CellMetrics, len(pins))
		for i := range pins {
			var err error
			units[i], err = timed(func() (int64, error) {
				cm, err := checkedCell(rep, pins[(start+i)%len(pins)], sb)
				if err != nil {
					return 0, err
				}
				cells[i] = cm
				return int64(cm.Emitted), nil
			})
			if err != nil {
				return nil, err
			}
		}
		checkAIMD(rep, cells)
		last = cells
		return units, nil
	})
	if err != nil {
		return err
	}
	o.heapMB = liveHeapMB()
	runtime.KeepAlive(last)

	// The latency of a cell is its best-decile wall time over the passes
	// (the same undisturbed cost the rate is built from); the percentiles
	// are taken across the matrix's cells.
	lat := make([]int64, len(pins))
	for u := range lat {
		ws := make([]float64, len(passes))
		for p := range passes {
			ws[p] = float64(passes[p][u].wall)
		}
		lat[u] = int64(quantile(ws, 0.1))
	}
	var gets, drops int
	for _, c := range last {
		gets += c.Gets
		drops += c.Drops
	}
	o.latUs = latencyUs(lat, 0.5, 0.95, 0.99)
	o.skippedFrac = float64(drops) / float64(drops+gets)
	o.emit(cfg, rep)
	return nil
}
