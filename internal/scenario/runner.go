package scenario

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vt"
)

// RunConfig selects how a generated Spec is executed.
type RunConfig struct {
	// Estimator is "raw" (default: raw summary-STP propagation) or
	// "aimd" (the PR-7 filtered AIMD pipeline).
	Estimator string
	// Metrics attaches a live metrics registry (no background sampler,
	// so instrument updates are the only metrics-subsystem activity); the
	// cell then reports the registry's series count and lets callers
	// diff metrics-on vs metrics-off outcomes for neutrality.
	Metrics bool
	// Warmup is excluded from the analysis window (default Duration/8).
	Warmup time.Duration
	// Clock overrides the run's clock (default: a fresh discrete-event
	// clock.Virtual, whose wake order makes a cell bit-reproducible).
	// Cells pinned in BENCH_scenarios.json always use the default; a
	// real clock is for smoke runs over remote edges, which need
	// wall-clock networking, and gives up bit-reproducibility.
	Clock clock.Clock
	// Drain ends the run with a graceful Runtime.Drain at 3/4 of the
	// cell duration instead of running to the stop deadline: sources
	// quiesce, relays and sinks flush the backlog, and the cell reports
	// the drain accounting (drained/shed/clean). On the virtual clock a
	// drain is bit-reproducible like everything else, which is exactly
	// what the pinned drain cells assert.
	Drain bool
	// Elastic installs the elastic scheduler (internal/sched) over the
	// cell's relay stages: the control loop elects the bottleneck relay
	// each tick and replicates it behind its inbound buffer. On the
	// virtual clock the scale schedule is bit-reproducible like
	// everything else, so elastic cells pin the scheduler's end-to-end
	// behavior per topology.
	Elastic bool
}

// CellMetrics is one cell of the scenario matrix: the paper's MU/IGC
// numbers plus the operational signals (drops, blocked-put p99,
// supervision restarts, metrics footprint) for one deterministic run.
// Two runs of the same (seed, topology, shape, estimator) cell must
// marshal to byte-identical JSON — the determinism oracle test and the
// BENCH_scenarios.json pin both lean on that.
//
// Every field below is an event count or an integral/quantile over the
// run's event sequence. The footprint peak is tie-order invariant too
// (the trace analyzer folds equal-instant alloc/free deltas into one
// step), but it is not part of the pinned record.
type CellMetrics struct {
	Topology  string `json:"topology"`
	Shape     string `json:"shape"`
	Seed      uint64 `json:"seed"`
	Estimator string `json:"estimator"`
	Failures  int    `json:"failures"`
	Stages    int    `json:"stages"`
	Buffers   int    `json:"buffers"`

	Produced int64 `json:"produced"` // source puts over the whole run
	Gets     int   `json:"gets"`     // in-window item consumptions
	Emitted  int   `json:"emitted"`  // in-window sink outputs
	Drops    int   `json:"drops"`    // in-window latest-discipline skips

	DropRatio     float64 `json:"drop_ratio"`
	MUMeanBytes   float64 `json:"mu_mean_bytes"`
	MUStdBytes    float64 `json:"mu_std_bytes"`
	IGCMeanBytes  float64 `json:"igc_mean_bytes"`
	WastedMemPct  float64 `json:"wasted_mem_pct"`
	WastedCompPct float64 `json:"wasted_comp_pct"`
	ThroughputFPS float64 `json:"throughput_fps"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	JitterMs      float64 `json:"jitter_ms"`

	ItemsTotal      int `json:"items_total"`
	ItemsSuccessful int `json:"items_successful"`
	ItemsWasted     int `json:"items_wasted"`

	PutWaits     int     `json:"put_waits"`       // puts that landed
	PutWaitP99Ms float64 `json:"put_wait_p99_ms"` // p99 of their park on capacity (plus the round trip on remote edges)

	Restarts      int `json:"restarts"`       // supervised restarts consumed
	MetricsSeries int `json:"metrics_series"` // live registry series (0 when metrics off)

	// Drain-mode accounting (RunConfig.Drain only; omitted — and zero —
	// for ordinary cells, so the pinned matrix's historical cells keep
	// byte-identical JSON).
	DrainMode    bool    `json:"drain_mode,omitempty"`    // cell ran under RunConfig.Drain
	DrainedItems int64   `json:"drained_items,omitempty"` // items flushed downstream after seal
	DrainShed    int64   `json:"drain_shed,omitempty"`    // items explicitly shed at settle
	DrainClean   bool    `json:"drain_clean,omitempty"`   // deadline not hit
	DrainMs      float64 `json:"drain_ms,omitempty"`      // drain duration (virtual time)

	// Elastic-mode accounting (RunConfig.Elastic only; omitted — and
	// zero — for ordinary cells for the same pin-stability reason).
	ElasticMode        bool  `json:"elastic_mode,omitempty"`         // cell ran under RunConfig.Elastic
	ElasticScaleUps    int64 `json:"elastic_scale_ups,omitempty"`    // replica spawns across all relays
	ElasticScaleDowns  int64 `json:"elastic_scale_downs,omitempty"`  // drain-safe retirements
	ElasticReplicasEnd int   `json:"elastic_replicas_end,omitempty"` // live replicas at the final tick
}

// runner holds the shared execution state for one cell.
type runner struct {
	spec   *Spec
	clk    clock.Clock
	rt     *rt.Runtime
	stages []*stageRun
	total  time.Duration
}

// stageRun is one stage's mutable run state. It survives supervised
// restarts (the body closure captures it), so the iteration counter
// keeps counting across a panic and a FailAt panic fires once.
//
// Under RunConfig.Elastic the same closure also runs in scheduler-
// spawned replica incarnations concurrently with the primary, so the
// counters are atomic and the wait samples are mutex-guarded. The
// quantile over putWaitNs sorts its input, so replica-interleaved
// append order cannot move a pinned number.
type stageRun struct {
	r      *runner
	spec   *StageSpec
	thread *rt.Thread
	iter   atomic.Int64
	prod   atomic.Int64
	// cut records that the stage's last put returned ErrShutdown: Stop
	// interrupted it, and over a remote edge it may have landed anyway.
	cut atomic.Bool

	mu        sync.Mutex // guards putWaitNs
	putWaitNs []float64
}

func (s *stageRun) now() time.Duration { return s.r.clk.Now() }

// checkFail fires the injected failure exactly once, at the drawn
// local iteration (iter is the caller's freshly incremented count).
func (s *stageRun) checkFail(iter int64) {
	if s.spec.FailAt > 0 && iter == s.spec.FailAt {
		panic(fmt.Sprintf("scenario: injected failure in %s at iteration %d", s.spec.Name, iter))
	}
}

// put produces one item and, if it landed, samples how long the put
// parked on a full bounded buffer (zero for channels, which never block
// a put). A failed put is not sampled: its wait ended in the failure,
// not in capacity.
func (s *stageRun) put(ctx *rt.Ctx, p *rt.OutPort, ts vt.Timestamp, size int64) error {
	start := s.now()
	if err := informational(ctx.Put(p, ts, nil, size)); err != nil {
		s.cut.Store(errors.Is(err, rt.ErrShutdown))
		return err
	}
	wait := s.now() - start
	s.mu.Lock()
	s.putWaitNs = append(s.putWaitNs, float64(wait))
	s.mu.Unlock()
	return nil
}

// informational folds the remote layer's ErrReattached into success:
// the wire dropped mid-operation and the item went through a fresh
// session (remote edges under chaos).
func informational(err error) error {
	if errors.Is(err, rt.ErrReattached) {
		return nil
	}
	return err
}

// bodyErr maps a clean-shutdown exit to nil; anything else is a real
// failure and goes to the supervisor.
func bodyErr(err error) error {
	if errors.Is(err, rt.ErrShutdown) {
		return nil
	}
	return err
}

// sourceBody offers load on the cell's shape: compute the acquisition
// cost, put, then pad the iteration to max(shape period, controller
// target) before Sync, so Sync's own pace sleeps zero. Pacing through
// Sync alone would move source wakes off whole Grid quanta, and with
// them the matrix's AIMD ≤ raw drops differential fails on 8
// diamond/fanout pairs.
func (s *stageRun) sourceBody(ctx *rt.Ctx) error {
	out := ctx.Outs()[0]
	base := s.r.spec.Params.BasePeriod
	for !ctx.Stopped() {
		start := s.now()
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		if err := s.put(ctx, out, vt.Timestamp(n), s.spec.ItemBytes); err != nil {
			return bodyErr(err)
		}
		s.prod.Add(1)
		span := s.r.spec.Shape.Period(base, start, s.r.total)
		if t := s.r.rt.Controller().TargetPeriod(s.thread.ID()); t.Known() {
			if q := QuantizeUp(t.Duration()); q > span {
				span = q
			}
		}
		ctx.Idle(start + span - s.now())
		ctx.Sync()
	}
	return nil
}

// relayBody blocks for its input, pays the compute cost, and forwards.
func (s *stageRun) relayBody(ctx *rt.Ctx) error {
	in, out := ctx.Ins()[0], ctx.Outs()[0]
	for !ctx.Stopped() {
		msg, err := ctx.Get(in)
		if err = informational(err); err != nil {
			return bodyErr(err)
		}
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		if err := s.put(ctx, out, msg.TS, s.spec.ItemBytes); err != nil {
			return bodyErr(err)
		}
		ctx.Sync()
	}
	return nil
}

// joinBody blocks on its first input, then takes whatever is fresh on
// the others without waiting for them, and emits one joined item. The
// output carries the join's own monotonic timestamp: sibling branches
// legally deliver the same upstream timestamp (a channel fan-out
// broadcasts), so forwarding the max would collide on the output
// buffer's unique-timestamp rule.
func (s *stageRun) joinBody(ctx *rt.Ctx) error {
	ins, out := ctx.Ins(), ctx.Outs()[0]
	for !ctx.Stopped() {
		if _, err := ctx.Get(ins[0]); informational(err) != nil {
			return bodyErr(err)
		}
		for _, in := range ins[1:] {
			if _, _, err := ctx.TryGetLatest(in); informational(err) != nil {
				return bodyErr(err)
			}
		}
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		if err := s.put(ctx, out, vt.Timestamp(n), s.spec.ItemBytes); err != nil {
			return bodyErr(err)
		}
		ctx.Sync()
	}
	return nil
}

// sinkBody consumes, pays the display cost, and emits the pipeline
// output (the trace's latency/throughput anchor).
func (s *stageRun) sinkBody(ctx *rt.Ctx) error {
	in := ctx.Ins()[0]
	for !ctx.Stopped() {
		if _, err := ctx.Get(in); informational(err) != nil {
			return bodyErr(err)
		}
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		ctx.Emit()
		ctx.Sync()
	}
	return nil
}

// failurePolicy is the deterministic supervision schedule for injected
// panics: grid-multiple backoff delays with the jitter term disabled
// (Jitter −1), so a restart schedule is a function of the spec.
func failurePolicy() rt.RestartPolicy {
	return rt.RestartPolicy{
		Backoff:     backoff.Backoff{Base: 4 * Grid, Cap: 16 * Grid, Factor: 2, Jitter: -1},
		MaxRestarts: 3,
		Seed:        1,
	}
}

// build declares the spec's buffers and threads into a fresh runtime.
func build(spec *Spec, opts rt.Options) (*runner, error) {
	r := &runner{
		spec:  spec,
		clk:   opts.Clock,
		total: spec.Params.Duration,
	}
	r.rt = rt.New(opts)

	bufRefs := make([]*rt.BufferRef, len(spec.Buffers))
	for i := range spec.Buffers {
		b := &spec.Buffers[i]
		switch b.Backend {
		case "channel":
			ref, err := r.rt.AddChannel(b.Name, 0)
			if err != nil {
				return nil, err
			}
			bufRefs[i] = ref
		case "queue":
			ref, err := r.rt.AddQueue(b.Name, 0, rt.WithQueueCapacity(b.Capacity))
			if err != nil {
				return nil, err
			}
			bufRefs[i] = ref
		case "remote":
			// Wire-backed edge: requires a real clock and a live server
			// (chaos composition, never part of the pinned matrix).
			ref, err := r.rt.AddRemoteChannel(b.Name, 0, b.Addr)
			if err != nil {
				return nil, err
			}
			bufRefs[i] = ref
		default:
			return nil, fmt.Errorf("scenario: buffer %q has unknown backend %q", b.Name, b.Backend)
		}
	}

	r.stages = make([]*stageRun, len(spec.Stages))
	for i := range spec.Stages {
		st := &spec.Stages[i]
		s := &stageRun{r: r, spec: st}
		var body rt.Body
		switch st.Kind {
		case "source":
			body = s.sourceBody
		case "relay":
			body = s.relayBody
		case "join":
			body = s.joinBody
		case "sink":
			body = s.sinkBody
		default:
			return nil, fmt.Errorf("scenario: stage %q has unknown kind %q", st.Name, st.Kind)
		}
		var topts []rt.ThreadOption
		if st.FailAt > 0 {
			topts = append(topts, rt.WithRestartOnFailure(failurePolicy()))
		}
		th, err := r.rt.AddThread(st.Name, 0, body, topts...)
		if err != nil {
			return nil, err
		}
		s.thread = th
		for _, bi := range st.Inputs {
			ref := bufRefs[bi]
			if spec.Buffers[bi].Backend == "channel" && st.Window > 1 {
				if _, err := th.InputWindow(ref, st.Window); err != nil {
					return nil, err
				}
			} else if _, err := th.Input(ref); err != nil {
				return nil, err
			}
		}
		for _, bi := range st.Outputs {
			if _, err := th.Output(bufRefs[bi]); err != nil {
				return nil, err
			}
		}
		r.stages[i] = s
	}
	return r, nil
}

// scenarioAIMD tunes the AIMD estimator for the scenario matrix. The
// default ±10% hysteresis band lets the damped target hold up to 10%
// below the demand estimate indefinitely; with the simulator's exact
// feedback (the summary-STP IS the bottleneck's demanded period, not a
// noisy congestion inference) that band is pure over-production — the
// source outruns the signalled demand and every extra item becomes a
// latest-discipline drop, visibly so on fan-out topologies. A tight
// band and a window matched to the load shapes keeps the damped target
// tracking the signal, which is the regime under which the matrix-wide
// "AIMD no worse on drops than raw" differential is asserted.
func scenarioAIMD() core.AIMDConfig {
	cfg := core.DefaultAIMDConfig()
	cfg.Margin = 0.02
	cfg.Window = time.Second
	return cfg
}

// elasticSchedConfig derives the scheduler configuration for an
// elastic cell from the generated spec: supervise every relay stage
// (sources and sinks stay fixed — replicating a source would change
// the offered load, and the sink anchors the output order) and defend
// a period of half the cost ceiling, so any relay whose drawn cost
// lands in the upper half of the range genuinely violates the target
// while it has work. Everything else keeps the scheduler defaults; on
// the discrete-event clock the resulting scale schedule is exactly as
// reproducible as the rest of the cell, which is what the pinned
// elastic cells assert.
func elasticSchedConfig(spec *Spec) sched.Config {
	var relays []string
	for i := range spec.Stages {
		if spec.Stages[i].Kind == "relay" {
			relays = append(relays, spec.Stages[i].Name)
		}
	}
	return sched.Config{
		TargetPeriod: QuantizeUp(spec.Params.CostMax / 2),
		Stages:       relays,
	}
}

// Run executes one cell: wire the spec into a real Runtime on a fresh
// discrete-event clock, run it to completion, and reduce the trace to
// CellMetrics. Same spec + same config → byte-identical metrics.
func Run(spec *Spec, cfg RunConfig) (*CellMetrics, error) {
	cm, _, err := run(spec, cfg)
	return cm, err
}

// run is Run that also returns the stopped runner, whose runtime still
// answers Snapshot.
func run(spec *Spec, cfg RunConfig) (*CellMetrics, *runner, error) {
	est := cfg.Estimator
	if est == "" {
		est = "raw"
	}
	policy := core.PolicyMin()
	switch est {
	case "raw":
	case "aimd":
		policy = policy.WithEstimator(core.AIMDFactory(scenarioAIMD()))
	default:
		return nil, nil, fmt.Errorf("scenario: unknown estimator %q", est)
	}

	var reg *metrics.Registry
	if cfg.Metrics || cfg.Elastic {
		// Elastic cells need the registry even when Metrics is off: the
		// scheduler's counters are how the cell reports its scale events.
		reg = metrics.NewRegistry()
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewVirtual()
	}
	rec := trace.NewRecorder()
	opts := rt.Options{
		Clock:    clk,
		Recorder: rec,
		ARU:      policy,
		Metrics:  reg,
	}
	if cfg.Elastic {
		opts.ControlLoops = append(opts.ControlLoops, sched.Loop(elasticSchedConfig(spec)))
	}
	r, err := build(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	var drainRep rt.DrainReport
	if cfg.Drain {
		// Run 3/4 of the cell, then drain gracefully: sources quiesce
		// and the relays/sinks flush the backlog. The drain deadline
		// is the full cell duration — generous, so a correct flush is
		// always Clean and a non-clean drain is a regression.
		// The caller is a participant from before Start until the drain
		// has stopped the runtime, as RunFor's is.
		reg, hasReg := clk.(clock.Registrar)
		if hasReg {
			reg.Add(1)
		}
		if err := r.rt.Start(); err != nil {
			return nil, nil, err
		}
		clk.Sleep(QuantizeUp(3 * r.total / 4))
		drainRep = r.rt.Drain(r.total)
		if hasReg {
			reg.Add(-1)
		}
		if err := r.rt.Wait(); err != nil {
			return nil, nil, err
		}
	} else if err := r.rt.RunFor(r.total); err != nil {
		return nil, nil, err
	}

	warmup := cfg.Warmup
	if warmup <= 0 {
		warmup = QuantizeUp(r.total / 8)
	}
	if warmup >= r.total {
		warmup = 0
	}
	a, err := trace.Analyze(rec, trace.AnalyzeOptions{From: warmup, To: r.total})
	if err != nil {
		return nil, nil, err
	}

	cm := &CellMetrics{
		Topology:        spec.Params.Topology,
		Shape:           spec.Params.Shape,
		Seed:            spec.Params.Seed,
		Estimator:       est,
		Failures:        spec.Params.Failures,
		Stages:          len(spec.Stages),
		Buffers:         len(spec.Buffers),
		Gets:            a.Gets,
		Emitted:         a.Outputs,
		Drops:           a.Skips,
		MUMeanBytes:     a.All.MeanBytes,
		MUStdBytes:      a.All.StdBytes,
		IGCMeanBytes:    a.IGC.MeanBytes,
		WastedMemPct:    a.WastedMemPct,
		WastedCompPct:   a.WastedCompPct,
		ThroughputFPS:   a.ThroughputFPS,
		LatencyP50Ms:    ms(a.LatencyP50),
		LatencyP95Ms:    ms(a.LatencyP95),
		LatencyP99Ms:    ms(a.LatencyP99),
		JitterMs:        ms(a.Jitter),
		ItemsTotal:      a.ItemsTotal,
		ItemsSuccessful: a.ItemsSuccessful,
		ItemsWasted:     a.ItemsWasted,
	}
	if a.Gets+a.Skips > 0 {
		cm.DropRatio = float64(a.Skips) / float64(a.Gets+a.Skips)
	}
	var waits []float64
	for _, s := range r.stages {
		cm.Produced += s.prod.Load()
		waits = append(waits, s.putWaitNs...)
	}
	cm.PutWaits = len(waits)
	if len(waits) > 0 {
		cm.PutWaitP99Ms = stats.Quantile(waits, 0.99) / float64(time.Millisecond)
	}
	for _, th := range r.rt.Health().Threads {
		cm.Restarts += th.Restarts
	}
	if cfg.Metrics {
		cm.MetricsSeries = registrySeries(reg)
	}
	if cfg.Elastic {
		cm.ElasticMode = true
		for _, s := range r.stages {
			if s.spec.Kind != "relay" {
				continue
			}
			ls := metrics.Labels{"stage": s.spec.Name}
			cm.ElasticScaleUps += reg.Counter(sched.MetricScaleUps, "", ls).Value()
			cm.ElasticScaleDowns += reg.Counter(sched.MetricScaleDowns, "", ls).Value()
			// The gauge holds the scheduler's last-tick count; the live
			// replica set itself has drained by the time the run returns.
			cm.ElasticReplicasEnd += int(reg.Gauge(sched.MetricReplicas, "", ls).Value())
		}
	}
	if cfg.Drain {
		cm.DrainMode = true
		cm.DrainedItems = drainRep.Drained
		cm.DrainShed = drainRep.Shed
		cm.DrainClean = drainRep.Clean
		cm.DrainMs = ms(drainRep.Duration)
	}
	return cm, r, nil
}

// registrySeries counts the exposition series the cell's run created —
// a deterministic stand-in for metrics-subsystem overhead (each series
// is a fixed number of atomic updates per event; EXPERIMENTS.md pins
// the ns/update cost). The count is WriteProm's sample lines, read off
// the snapshot: one per counter or gauge series, and per histogram
// series one per bucket plus _sum and _count.
func registrySeries(reg *metrics.Registry) int {
	n := 0
	for _, f := range reg.Gather() {
		for _, s := range f.Series {
			if f.Kind == "histogram" {
				n += len(s.Buckets) + 2
			} else {
				n++
			}
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
