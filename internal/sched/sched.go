// Package sched is the elastic, resource-aware scheduler: a periodic
// duty of the runtime's control loop, over Runtime.Snapshot, that
// detects the bottleneck stage of a running application and elastically
// replicates it into a worker pool behind its inbound buffer.
//
// The loop is a classical sensor → policy → actuator pipeline:
//
//	sensor:   Runtime.Snapshot — per-stage summary/current STP from the
//	          feedback controller, plus blocked-put time accumulated on
//	          each stage's inbound buffers (backlog pressure).
//	policy:   per-stage pure hysteresis state machine (policy.go) with
//	          sustain counters, an up/down dead band, and post-action
//	          cooldown, so decisions never flap.
//	actuator: Runtime.SpawnReplica / Runtime.RetireReplica — real
//	          supervised incarnations sharing the stage's consumer side,
//	          placed on the least-loaded simulated host by per-stage
//	          resource weight.
//
// The scheduler is strictly opt-in: a runtime without a sched loop in
// Options.ControlLoops behaves byte-identically to one built before
// this package existed.
package sched

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// Metric family names exported by the scheduler (registered only when
// the runtime has a metrics registry).
const (
	// MetricReplicas is the live replica count per stage (gauge).
	MetricReplicas = "aru_sched_replicas"
	// MetricScaleUps counts replica spawns per stage.
	MetricScaleUps = "aru_sched_scale_ups_total"
	// MetricScaleDowns counts replica retirements per stage.
	MetricScaleDowns = "aru_sched_scale_downs_total"
	// MetricBottleneck is 1 on the stage that won the latest bottleneck
	// election, 0 elsewhere (gauge).
	MetricBottleneck = "aru_sched_bottleneck"
)

// Defaults applied by Config.withDefaults.
const (
	DefaultMaxReplicas = 3
	DefaultTick        = 50 * time.Millisecond
	DefaultUpSustain   = 3
	DefaultDownSustain = 5
	DefaultDownBand    = 0.9
	DefaultCooldown    = 2
)

// Config parameterizes one scheduler loop.
type Config struct {
	// TargetPeriod is the per-stage service period the scheduler defends:
	// a bottleneck stage whose effective current-STP exceeds it is
	// scaled up. Required (a zero target would scale everything forever).
	TargetPeriod time.Duration

	// Stages optionally restricts scaling to the named stages. Nil means
	// every eligible stage (threads with at least one input — sources
	// cannot be replicated).
	Stages []string

	// MaxReplicas caps the replicas per stage (default 3: with the
	// primary that is 4 incarnations, a 4× fold headroom).
	MaxReplicas int

	// Tick is the control period (default 50ms).
	Tick time.Duration

	// UpSustain / DownSustain are the consecutive-tick sustain
	// requirements for scaling up (default 3) and down (default 5) —
	// scaling down is deliberately the slower direction.
	UpSustain   int
	DownSustain int

	// DownBand is the scale-down headroom fraction (default 0.9): a
	// replica retires only if the projected period without it stays
	// below DownBand × TargetPeriod. The (DownBand × Target, Target]
	// interval is the hysteresis dead band.
	DownBand float64

	// Cooldown is the number of ticks every stage holds after any
	// actuation on it (default 2), letting the STP fold re-converge
	// before the next decision.
	Cooldown int

	// Weights is the per-stage resource weight used for placement
	// (default 1.0): a replica lands on the candidate host with the
	// minimum summed weight of scheduler-placed replicas.
	Weights map[string]float64

	// Hosts is the candidate host set for placement. Nil means every
	// replica inherits its primary's host (single-host behaviour).
	Hosts []int
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.MaxReplicas == 0 {
		cfg.MaxReplicas = DefaultMaxReplicas
	}
	if cfg.Tick == 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.UpSustain == 0 {
		cfg.UpSustain = DefaultUpSustain
	}
	if cfg.DownSustain == 0 {
		cfg.DownSustain = DefaultDownSustain
	}
	if cfg.DownBand == 0 {
		cfg.DownBand = DefaultDownBand
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	return cfg
}

// weight returns the placement weight of a stage (default 1).
func (cfg Config) weight(stage string) float64 {
	if w, ok := cfg.Weights[stage]; ok && w > 0 {
		return w
	}
	return 1
}

// stage is the scheduler's per-stage working state.
type stage struct {
	name   string
	inbufs []graph.NodeID // inbound buffer node ids (pressure sensors)
	pol    policy
	// lastBlocked is the previous tick's cumulative blocked-put reading
	// summed over inbufs; the per-tick delta is the pressure signal.
	lastBlocked time.Duration
	// placed is the host placement stack of scheduler-spawned replicas
	// (parallel to the runtime's newest-first retirement order).
	placed []int

	mReplicas   *metrics.Gauge
	mUps        *metrics.Counter
	mDowns      *metrics.Counter
	mBottleneck *metrics.Gauge
}

// scheduler is one control loop's state over one runtime.
type scheduler struct {
	cfg      Config
	rt       *runtime.Runtime
	stages   map[string]*stage
	ordered  []*stage // graph declaration order, for deterministic election ties
	hostLoad map[int]float64
}

// newScheduler discovers the eligible stages from the runtime's task
// graph and initializes their policy state.
func newScheduler(rt *runtime.Runtime, cfg Config) *scheduler {
	s := &scheduler{
		cfg:      cfg,
		rt:       rt,
		stages:   make(map[string]*stage),
		hostLoad: make(map[int]float64),
	}
	var allow map[string]bool
	if cfg.Stages != nil {
		allow = make(map[string]bool, len(cfg.Stages))
		for _, name := range cfg.Stages {
			allow[name] = true
		}
	}
	g := rt.Graph()
	g.Nodes(func(n *graph.Node) {
		if n.Kind != graph.KindThread {
			return
		}
		ins := g.Upstream(n.ID)
		if len(ins) == 0 {
			return // sources cannot be replicated
		}
		if allow != nil && !allow[n.Name] {
			return
		}
		st := &stage{
			name:   n.Name,
			inbufs: ins,
			pol: policy{
				target:      cfg.TargetPeriod,
				downBand:    cfg.DownBand,
				upSustain:   cfg.UpSustain,
				downSustain: cfg.DownSustain,
				cooldownFor: cfg.Cooldown,
				maxReplicas: cfg.MaxReplicas,
			},
		}
		if reg := rt.Metrics(); reg != nil {
			ls := metrics.Labels{"stage": n.Name}
			st.mReplicas = reg.Gauge(MetricReplicas, "live elastic replicas per stage", ls)
			st.mUps = reg.Counter(MetricScaleUps, "elastic replica spawns per stage", ls)
			st.mDowns = reg.Counter(MetricScaleDowns, "elastic replica retirements per stage", ls)
			st.mBottleneck = reg.Gauge(MetricBottleneck, "1 on the elected bottleneck stage", ls)
		}
		s.stages[n.Name] = st
		s.ordered = append(s.ordered, st)
	})
	return s
}

// step runs one control tick: sense, elect, decide, actuate.
func (s *scheduler) step() {
	if len(s.stages) == 0 {
		return
	}
	snap := s.rt.Snapshot()
	if snap.Draining {
		return // drain owns the application's fate; never actuate into it
	}

	// Sense: per-stage STP from the controller fold, blocked-put deltas
	// from the inbound buffers.
	summaries := make(map[string]core.STP, len(snap.Nodes))
	currents := make(map[string]core.STP, len(snap.Nodes))
	for _, ns := range snap.Nodes {
		summaries[ns.Name] = ns.Summary
		currents[ns.Name] = ns.Current
	}
	blocked := make(map[graph.NodeID]time.Duration, len(snap.Buffers))
	for _, bs := range snap.Buffers {
		blocked[bs.Node] = bs.PutBlocked
	}

	// Elect the bottleneck: the eligible stage maximizing summary-STP
	// plus this tick's inbound blocked-put delta. The delta is itself
	// time producers lost to the stage's backlog, so the two addends
	// share a unit; declaration order breaks exact ties
	// deterministically.
	type sense struct {
		st       *stage
		current  time.Duration
		pressure bool
	}
	senses := make([]sense, 0, len(s.ordered))
	var leader *stage
	var best time.Duration
	for _, st := range s.ordered {
		var total time.Duration
		for _, id := range st.inbufs {
			total += blocked[id]
		}
		delta := total - st.lastBlocked
		st.lastBlocked = total
		score := summaries[st.name].Duration() + delta
		senses = append(senses, sense{
			st:       st,
			current:  currents[st.name].Duration(),
			pressure: delta > 0,
		})
		if score > best {
			best, leader = score, st
		}
	}

	// Decide and actuate per stage.
	for _, sn := range senses {
		st := sn.st
		replicas := snap.Replicas[st.name]
		s.reconcile(st, replicas)
		if st.mBottleneck != nil {
			if st == leader {
				st.mBottleneck.Set(1)
			} else {
				st.mBottleneck.Set(0)
			}
		}
		d := st.pol.observe(Signal{
			Current:    sn.current,
			Bottleneck: st == leader,
			Replicas:   replicas,
			Pressure:   sn.pressure,
		})
		switch d {
		case ScaleUp:
			host := s.pickHost()
			if _, err := s.rt.SpawnReplica(st.name, host); err == nil {
				st.placed = append(st.placed, host)
				if host >= 0 {
					s.hostLoad[host] += s.cfg.weight(st.name)
				}
				replicas++
				st.mUps.Inc()
			}
		case ScaleDown:
			if _, err := s.rt.RetireReplica(st.name); err == nil {
				s.unplace(st)
				replicas--
				st.mDowns.Inc()
			}
		}
		st.mReplicas.Set(int64(replicas))
	}
}

// reconcile trues the stage's placement stack against the runtime's
// live replica count: replicas that exited on their own (permanent
// failure, shutdown) release their host load without a ScaleDown.
func (s *scheduler) reconcile(st *stage, live int) {
	for len(st.placed) > live {
		s.unplace(st)
	}
}

// unplace pops the newest placement (runtime retirement is LIFO) and
// releases its weighted host load.
func (s *scheduler) unplace(st *stage) {
	if len(st.placed) == 0 {
		return
	}
	host := st.placed[len(st.placed)-1]
	st.placed = st.placed[:len(st.placed)-1]
	if host >= 0 {
		s.hostLoad[host] -= s.cfg.weight(st.name)
	}
}

// pickHost chooses the candidate host carrying the minimum weighted
// replica load (first-listed wins ties); -1 — inherit the primary's
// host — when no candidate set is configured.
func (s *scheduler) pickHost() int {
	if len(s.cfg.Hosts) == 0 {
		return -1
	}
	bestHost, bestLoad := s.cfg.Hosts[0], s.hostLoad[s.cfg.Hosts[0]]
	for _, h := range s.cfg.Hosts[1:] {
		if l := s.hostLoad[h]; l < bestLoad {
			bestHost, bestLoad = h, l
		}
	}
	return bestHost
}

// Loop builds the runtime control loop for cfg. Wire it in with
//
//	opts.ControlLoops = append(opts.ControlLoops, sched.Loop(sched.Config{
//		TargetPeriod: 40 * time.Millisecond,
//	}))
//
// (or the aru.WithElastic facade helper). The scheduler is built on the
// runtime control loop's first turn and steps once every cfg.Tick; on
// the virtual and manual clocks the tick schedule is driven through the
// clock, so tests pin the exact decision sequence.
func Loop(cfg Config) runtime.ControlLoop {
	cfg = cfg.withDefaults()
	return func(rt *runtime.Runtime) (time.Duration, func()) {
		return cfg.Tick, newScheduler(rt, cfg).step
	}
}
