package scenario

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/buffer"
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
	// Metrics attaches a live metrics registry (sampler disabled, so
	// instrument updates are the only metrics-subsystem activity); the
	// cell then reports the registry's series count and lets callers
	// diff metrics-on vs metrics-off outcomes for neutrality.
	Metrics bool
	// Warmup is excluded from the analysis window (default Duration/8).
	Warmup time.Duration
	// Clock overrides the run's clock (default: a fresh discrete-event
	// clock.Virtual). Cells pinned in BENCH_scenarios.json always use
	// the default; a real clock is for smoke runs over remote edges,
	// which need wall-clock networking, and gives up
	// bit-reproducibility.
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
// PeakBytes is deliberately absent: footprint peaks depend on the
// ordering of equal-instant alloc/free deltas, which is the one
// analysis output that is not tie-order invariant. Every field below
// is either an event count or an integral/quantile over a totally
// ordered event sequence.
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

	PutWaits     int     `json:"put_waits"`       // bounded-buffer puts measured
	PutWaitP99Ms float64 `json:"put_wait_p99_ms"` // blocked-put p99 (occupancy-gated wait)

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

// errDeadline makes a stage body exit cleanly when its per-stage
// deadline passes while it is gated on a full buffer.
var errDeadline = errors.New("scenario: stage deadline reached")

// runner holds the shared execution state for one cell.
type runner struct {
	spec     *Spec
	clk      clock.Clock
	rt       *rt.Runtime
	bufRefs  []*rt.BufferRef
	stages   []*stageRun
	total    time.Duration
	deadline time.Duration // base stage deadline (phase is added per stage)
}

// stageRun is one stage's mutable run state. It survives supervised
// restarts (the body closure captures it), which is what keeps the
// injected-failure schedule and the phase discipline stable across a
// panic: the initial phase offset runs exactly once per run, and the
// iteration counter keeps counting so a FailAt panic fires once.
//
// Under RunConfig.Elastic the same closure also runs in scheduler-
// spawned replica incarnations concurrently with the primary, so the
// counters are atomic and the wait samples are mutex-guarded. The
// atomics cost nothing behaviorally in the single-threaded cells (the
// historical pins stay byte-identical), and the quantile over
// putWaitNs sorts its input, so replica-interleaved append order
// cannot move a pinned number.
type stageRun struct {
	r      *runner
	spec   *StageSpec
	thread *rt.Thread
	phase  time.Duration
	phased atomic.Bool
	iter   atomic.Int64
	prod   atomic.Int64

	mu        sync.Mutex      // guards outBufs resolution and putWaitNs
	outBufs   []buffer.Buffer // lazily resolved (post-Start)
	outCaps   []int
	putWaitNs []float64
}

func (s *stageRun) now() time.Duration { return s.r.clk.Now() }

// deadline is the stage's private exit instant: the shared base plus
// the stage phase, so the comparison instants stay on the stage's own
// grid residue and every stage exits before the runner's stop wakes.
func (s *stageRun) stageDeadline() time.Duration { return s.r.deadline + s.phase }

// enter runs once per body invocation: the first invocation sleeps the
// stage onto its unique sub-grid phase; restarts (and elastic replica
// incarnations, which join an already-phased stage) resume already
// phased (the restart backoff schedule is a whole number of grid
// quanta, so the residue survives the panic).
func (s *stageRun) enter(ctx *rt.Ctx) {
	if s.phased.CompareAndSwap(false, true) {
		ctx.Idle(s.phase)
	}
}

// checkFail fires the injected failure exactly once, at the drawn
// local iteration (iter is the caller's freshly incremented count).
func (s *stageRun) checkFail(iter int64) {
	if s.spec.FailAt > 0 && iter == s.spec.FailAt {
		panic(fmt.Sprintf("scenario: injected failure in %s at iteration %d", s.spec.Name, iter))
	}
}

// put produces one item, gating on occupancy for bounded buffers so
// the runtime-level Put never blocks (a block would hand wakeup order
// to the scheduler; the gate keeps the wait on the stage's own grid
// and measures it as the blocked-put sample).
func (s *stageRun) put(ctx *rt.Ctx, outIdx int, p *rt.OutPort, ts vt.Timestamp, size int64) error {
	wait := time.Duration(0)
	if cap := s.outCaps[outIdx]; cap > 0 {
		b := s.outBuf(outIdx)
		start := s.now()
		for {
			items, _ := b.Occupancy()
			if items < cap {
				break
			}
			if s.now() >= s.stageDeadline() {
				return errDeadline
			}
			ctx.Idle(Grid)
		}
		wait = s.now() - start
	}
	s.mu.Lock()
	s.putWaitNs = append(s.putWaitNs, float64(wait))
	s.mu.Unlock()
	err := ctx.Put(p, ts, nil, size)
	if errors.Is(err, rt.ErrReattached) {
		// Informational: the wire dropped mid-put and the item was
		// replayed through a fresh session (remote edges under chaos).
		err = nil
	}
	return err
}

// outBuf resolves the outIdx-th output buffer on first use (the ring
// handle only exists post-Start); the lock makes the resolution safe
// when replica incarnations race to the first put.
func (s *stageRun) outBuf(outIdx int) buffer.Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outBufs[outIdx] == nil {
		s.outBufs[outIdx] = s.r.rt.Buffer(s.r.bufRefs[s.spec.Outputs[outIdx]])
	}
	return s.outBufs[outIdx]
}

// tryGet polls an input without blocking, folding the remote layer's
// informational reattach into "nothing this wake".
func tryGet(ctx *rt.Ctx, in *rt.InPort) (rt.Msg, bool, error) {
	msg, ok, err := ctx.TryGetLatest(in)
	if errors.Is(err, rt.ErrReattached) {
		return rt.Msg{}, false, nil
	}
	return msg, ok, err
}

// bodyErr maps clean-shutdown and deadline exits to nil; anything else
// is a real failure and goes to the supervisor.
func bodyErr(err error) error {
	if err == nil || errors.Is(err, rt.ErrShutdown) || errors.Is(err, errDeadline) {
		return nil
	}
	return err
}

// sourceBody offers load on the cell's shape: compute the acquisition
// cost, put, then pad the iteration to max(shape period, controller
// target) before Sync — the pad is what makes ARU throttling happen at
// a grid instant instead of inside Throttle.Pace, keeping the run
// totally ordered while exercising the real control loop.
func (s *stageRun) sourceBody(ctx *rt.Ctx) error {
	s.enter(ctx)
	out := ctx.Outs()[0]
	base := s.r.spec.Params.BasePeriod
	for !ctx.Stopped() {
		start := s.now()
		if start >= s.stageDeadline() {
			return nil
		}
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		if err := s.put(ctx, 0, out, vt.Timestamp(n), s.spec.ItemBytes); err != nil {
			return bodyErr(err)
		}
		s.prod.Add(1)
		span := s.r.spec.Shape.Period(base, start, s.r.total)
		if t := s.r.rt.Controller().TargetPeriod(s.thread.ID()); t.Known() {
			if q := QuantizeUp(t.Duration()); q > span {
				span = q
			}
		}
		wake := start + span
		if dl := s.stageDeadline(); wake > dl {
			wake = dl
		}
		if now := s.now(); wake > now {
			ctx.Idle(wake - now)
		}
		ctx.Sync()
	}
	return nil
}

// relayBody polls its input (TryGet keeps the stage unblocked and on
// its grid residue), pays the compute cost, and forwards.
func (s *stageRun) relayBody(ctx *rt.Ctx) error {
	s.enter(ctx)
	in, out := ctx.Ins()[0], ctx.Outs()[0]
	for !ctx.Stopped() {
		if s.now() >= s.stageDeadline() {
			return nil
		}
		msg, ok, err := tryGet(ctx, in)
		if err != nil {
			return bodyErr(err)
		}
		if !ok {
			ctx.Idle(Grid)
			continue
		}
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		if err := s.put(ctx, 0, out, msg.TS, s.spec.ItemBytes); err != nil {
			return bodyErr(err)
		}
		ctx.Sync()
	}
	return nil
}

// joinBody drains at most one item per input per wake and emits one
// joined item. The output carries the join's own monotonic timestamp:
// sibling branches legally deliver the same upstream timestamp (a
// channel fan-out broadcasts), so forwarding the max would collide on
// the output buffer's unique-timestamp rule.
func (s *stageRun) joinBody(ctx *rt.Ctx) error {
	s.enter(ctx)
	ins, out := ctx.Ins(), ctx.Outs()[0]
	for !ctx.Stopped() {
		if s.now() >= s.stageDeadline() {
			return nil
		}
		got := 0
		for _, in := range ins {
			if _, ok, err := tryGet(ctx, in); err != nil {
				return bodyErr(err)
			} else if ok {
				got++
			}
		}
		if got == 0 {
			ctx.Idle(Grid)
			continue
		}
		n := s.iter.Add(1)
		s.checkFail(n)
		ctx.Compute(s.spec.Cost)
		if err := s.put(ctx, 0, out, vt.Timestamp(n), s.spec.ItemBytes); err != nil {
			return bodyErr(err)
		}
		ctx.Sync()
	}
	return nil
}

// sinkBody consumes, pays the display cost, and emits the pipeline
// output (the trace's latency/throughput anchor).
func (s *stageRun) sinkBody(ctx *rt.Ctx) error {
	s.enter(ctx)
	in := ctx.Ins()[0]
	for !ctx.Stopped() {
		if s.now() >= s.stageDeadline() {
			return nil
		}
		_, ok, err := tryGet(ctx, in)
		if err != nil {
			return bodyErr(err)
		}
		if !ok {
			ctx.Idle(Grid)
			continue
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
// panics: grid-multiple backoff delays (Jitter −1 disables the jitter
// term), so a restarted stage resumes on its own phase residue.
func failurePolicy() rt.RestartPolicy {
	return rt.RestartPolicy{
		Backoff:     backoff.Backoff{Base: 4 * Grid, Cap: 16 * Grid, Factor: 2, Jitter: -1},
		MaxRestarts: 3,
		Seed:        1,
	}
}

// baseDeadline is the shared stage-exit deadline for a cell: stages
// (and the elastic scheduler's tick horizon) stop strictly before the
// runner's stop instant so the shutdown sequence never races stage
// wakeups. The margin covers the largest compute draw plus gate polls
// and restart backoffs.
func baseDeadline(spec *Spec) time.Duration {
	d := spec.Params.Duration - (QuantizeUp(spec.Params.CostMax) + 32*Grid)
	if d < Grid {
		d = Grid
	}
	return d
}

// build declares the spec's buffers and threads into a fresh runtime.
func build(spec *Spec, opts rt.Options) (*runner, error) {
	r := &runner{
		spec:  spec,
		clk:   opts.Clock,
		total: spec.Params.Duration,
	}
	r.deadline = baseDeadline(spec)
	r.rt = rt.New(opts)

	r.bufRefs = make([]*rt.BufferRef, len(spec.Buffers))
	for i := range spec.Buffers {
		b := &spec.Buffers[i]
		switch b.Backend {
		case "channel":
			ref, err := r.rt.AddChannel(b.Name, 0)
			if err != nil {
				return nil, err
			}
			r.bufRefs[i] = ref
		case "queue":
			ref, err := r.rt.AddQueue(b.Name, 0, rt.WithQueueCapacity(b.Capacity))
			if err != nil {
				return nil, err
			}
			r.bufRefs[i] = ref
		case "remote":
			// Wire-backed edge: requires a real clock and a live server
			// (chaos composition, never part of the pinned matrix).
			ref, err := r.rt.AddRemoteChannel(b.Name, 0, b.Addr)
			if err != nil {
				return nil, err
			}
			r.bufRefs[i] = ref
		default:
			return nil, fmt.Errorf("scenario: buffer %q has unknown backend %q", b.Name, b.Backend)
		}
	}

	r.stages = make([]*stageRun, len(spec.Stages))
	for i := range spec.Stages {
		st := &spec.Stages[i]
		s := &stageRun{
			r:       r,
			spec:    st,
			phase:   time.Duration(st.Index + 1), // unique sub-grid residue
			outBufs: make([]buffer.Buffer, len(st.Outputs)),
			outCaps: make([]int, len(st.Outputs)),
		}
		for k, bi := range st.Outputs {
			s.outCaps[k] = spec.Buffers[bi].Capacity
		}
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
			ref := r.bufRefs[bi]
			if spec.Buffers[bi].Backend == "channel" && st.Window > 1 {
				if _, err := th.InputWindow(ref, st.Window); err != nil {
					return nil, err
				}
			} else if _, err := th.Input(ref); err != nil {
				return nil, err
			}
		}
		for _, bi := range st.Outputs {
			if _, err := th.Output(r.bufRefs[bi]); err != nil {
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
		// Ticks stop at the stage-exit deadline: a control tick landing
		// exactly on the stop instant would tie with the shutdown on the
		// virtual clock, and the loser of that tie is the one
		// scheduler-dependent outcome in an otherwise totally ordered
		// run. Inside the deadline every tick instant is unique.
		Horizon: baseDeadline(spec),
	}
}

// Run executes one cell: wire the spec into a real Runtime on a fresh
// discrete-event clock, run it to completion, and reduce the trace to
// CellMetrics. Same spec + same config → byte-identical metrics.
func Run(spec *Spec, cfg RunConfig) (*CellMetrics, error) {
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
		return nil, fmt.Errorf("scenario: unknown estimator %q", est)
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
		Clock:       clk,
		Recorder:    rec,
		ARU:         policy,
		Metrics:     reg,
		SampleEvery: -1, // no background sampler: nothing off-grid runs
	}
	if cfg.Elastic {
		opts.ControlLoops = append(opts.ControlLoops, sched.Loop(elasticSchedConfig(spec)))
	}
	r, err := build(spec, opts)
	if err != nil {
		return nil, err
	}
	var drainRep rt.DrainReport
	if cfg.Drain {
		// Run 3/4 of the cell, then drain gracefully: sources quiesce
		// and the live relays/sinks flush the backlog (their own stage
		// deadlines lie beyond the drain instant). The drain deadline is
		// the full cell duration — generous, so a correct flush is
		// always Clean and a non-clean drain is a regression.
		// The caller is a participant from before Start until the drain
		// has stopped the runtime, as RunFor's is.
		reg, hasReg := clk.(clock.Registrar)
		if hasReg {
			reg.Add(1)
		}
		if err := r.rt.Start(); err != nil {
			return nil, err
		}
		clk.Sleep(QuantizeUp(3 * r.total / 4))
		drainRep = r.rt.Drain(r.total)
		if hasReg {
			reg.Add(-1)
		}
		if err := r.rt.Wait(); err != nil {
			return nil, err
		}
	} else if err := r.rt.RunFor(r.total); err != nil {
		return nil, err
	}

	warmup := cfg.Warmup
	if warmup <= 0 {
		warmup = QuantizeUp(r.total / 8)
	}
	if warmup >= r.deadline {
		warmup = 0
	}
	a, err := trace.Analyze(rec, trace.AnalyzeOptions{From: warmup, To: r.total})
	if err != nil {
		return nil, err
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
	return cm, nil
}

// registrySeries counts the exposition series the cell's run created —
// a deterministic stand-in for metrics-subsystem overhead (each series
// is a fixed number of atomic updates per event; EXPERIMENTS.md pins
// the ns/update cost).
func registrySeries(reg *metrics.Registry) int {
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		return -1
	}
	n := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
