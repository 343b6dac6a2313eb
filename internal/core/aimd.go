package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
)

// AIMDPhase is the rate controller's actuation phase, reported for
// status output and metrics.
type AIMDPhase int8

const (
	// PhaseBackoff: the last update applied a multiplicative back-off
	// (pacing period raised — production rate multiplicatively cut).
	PhaseBackoff AIMDPhase = -1
	// PhaseHold: the last update left the target unchanged.
	PhaseHold AIMDPhase = 0
	// PhaseSpeedup: the last update applied an additive speed-up
	// (pacing period lowered by one step).
	PhaseSpeedup AIMDPhase = 1
)

// String renders the phase for status output.
func (p AIMDPhase) String() string {
	switch p {
	case PhaseBackoff:
		return "backoff"
	case PhaseSpeedup:
		return "speedup"
	default:
		return "hold"
	}
}

// AIMDConfig shapes the AIMD estimator. The zero value of every field
// selects a sensible default (see DefaultAIMDConfig); invalid explicit
// values panic at construction, mirroring the filter constructors.
type AIMDConfig struct {
	// Window bounds the sliding windows of the rate estimator and the
	// trendline filter by sample age. Default 2s.
	Window time.Duration
	// MaxSamples bounds the same windows by count. Default 64.
	MaxSamples int
	// Beta is the multiplicative back-off factor applied to the pacing
	// period on sustained over-production; must be ≥ 1. Default 1.15
	// (production rate cut to ≈0.87×, the GCC ballpark).
	Beta float64
	// Step is the additive speed-up subtracted from the pacing period
	// per update while slack is signalled. Default 1ms.
	Step time.Duration
	// Margin is the hysteresis half-width around the windowed estimate:
	// targets within ±Margin of the estimate hold. Default 0.10.
	Margin float64
	// Sustain is the over-production score required before a back-off
	// fires; in-band updates decay the score, and a rising trend counts
	// double, so a lone jitter spike never triggers a back-off but a
	// genuine demand increase does so quickly. Default 3.
	Sustain int
	// Gain is the Kalman-style smoothing gain of the trendline slope in
	// (0, 1]. Default 0.6.
	Gain float64
	// TrendThreshold is the normalized slope (fraction of the signal per
	// second) beyond which the trend reads overuse/underuse. Default
	// 0.25.
	TrendThreshold float64
	// MinTarget and MaxTarget clamp the pacing period (0 = unbounded).
	MinTarget, MaxTarget STP
	// Expire is the feedback silence after which the estimator's state
	// is discarded and Target falls back to the raw summary — the local
	// analogue of the remote staleness decay: a damped target must not
	// outlive the feedback that justified it. Default 3×Window.
	Expire time.Duration
}

// withDefaults fills zero fields and validates the rest.
func (c AIMDConfig) withDefaults() AIMDConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = 64
	}
	if c.MaxSamples < 3 {
		panic("core: AIMD MaxSamples must be ≥ 3")
	}
	if c.Beta == 0 {
		c.Beta = 1.15
	}
	if c.Beta < 1 {
		panic("core: AIMD Beta must be ≥ 1 (a back-off cannot speed production up)")
	}
	if c.Step <= 0 {
		c.Step = time.Millisecond
	}
	if c.Margin <= 0 {
		c.Margin = 0.10
	}
	if c.Sustain <= 0 {
		c.Sustain = 3
	}
	if c.Gain == 0 {
		c.Gain = 0.6
	}
	if c.Gain < 0 || c.Gain > 1 {
		panic("core: AIMD Gain must be in (0, 1]")
	}
	if c.TrendThreshold <= 0 {
		c.TrendThreshold = 0.25
	}
	if c.Expire <= 0 {
		c.Expire = 3 * c.Window
	}
	return c
}

// DefaultAIMDConfig returns the default AIMD tuning.
func DefaultAIMDConfig() AIMDConfig { return AIMDConfig{}.withDefaults() }

// RateController is the AIMD-shaped actuator: it owns the damped pacing
// target and moves it toward the windowed demand estimate —
// multiplicative back-off on sustained over-production, additive
// speed-up on slack, hold inside the hysteresis band. Unlike TCP's
// blind probe, the bottleneck's demanded period is explicitly signalled
// here (it IS the feedback), so the additive probe is floored at the
// band's lower edge: producing faster than the signalled demand is the
// paper's wasted production, not undiscovered capacity.
//
// RateController is not safe for concurrent use; the owning estimator
// serializes access.
type RateController struct {
	cfg    AIMDConfig
	target STP
	phase  AIMDPhase
	score  int // sustained over-production score
	// Lifetime actuation counters (monotonic; Reset keeps them so the
	// metrics layer can publish them as Prometheus counters).
	backoffs uint64
	speedups uint64
}

// NewRateController returns a controller with the given tuning
// (defaults applied to zero fields).
func NewRateController(cfg AIMDConfig) *RateController {
	return &RateController{cfg: cfg.withDefaults()}
}

// clamp applies the configured target bounds.
func (c *RateController) clamp(s STP) STP {
	if c.cfg.MinTarget.Known() && s < c.cfg.MinTarget {
		s = c.cfg.MinTarget
	}
	if c.cfg.MaxTarget.Known() && s > c.cfg.MaxTarget {
		s = c.cfg.MaxTarget
	}
	return s
}

// Update folds one windowed demand estimate and its trend
// classification into the target. Unknown estimates are ignored.
func (c *RateController) Update(est STP, trend TrendState) {
	if !est.Known() {
		return
	}
	if !c.target.Known() {
		// First feedback initializes the target at the demand estimate.
		c.target = c.clamp(est)
		c.phase = PhaseHold
		return
	}
	lo := STP(float64(est) * (1 - c.cfg.Margin))
	hi := STP(float64(est) * (1 + c.cfg.Margin))
	switch {
	case c.target < lo:
		// Over-production: we pace faster than downstream sustains.
		// Back off only when the signal persists — a rising trend counts
		// double so a genuine demand increase clears the bar in fewer
		// observations than jitter can.
		if trend == TrendOveruse {
			c.score += 2
		} else {
			c.score++
		}
		c.phase = PhaseHold
		if c.score >= c.cfg.Sustain {
			c.target = c.clamp(STP(float64(MaxSTP(c.target, est)) * c.cfg.Beta))
			c.phase = PhaseBackoff
			c.backoffs++
			c.score = 0
		}
	case c.target > hi && trend != TrendOveruse:
		// Slack: downstream demands less than we pace to. Speed up one
		// additive step, never past the band's lower edge.
		c.score = 0
		next := c.target - STP(c.cfg.Step)
		if next < lo {
			next = lo
		}
		c.target = c.clamp(next)
		c.phase = PhaseSpeedup
		c.speedups++
	default:
		// In band (or out-of-band slack while the trend still rises):
		// hold, and let a decaying score forget isolated spikes.
		if c.score > 0 {
			c.score--
		}
		c.phase = PhaseHold
	}
}

// Target returns the current pacing target (Unknown before the first
// known estimate).
func (c *RateController) Target() STP { return c.target }

// Phase returns the last update's actuation phase.
func (c *RateController) Phase() AIMDPhase { return c.phase }

// Counts returns the lifetime back-off and speed-up counts.
func (c *RateController) Counts() (backoffs, speedups uint64) {
	return c.backoffs, c.speedups
}

// Reset clears the target and phase, keeping the lifetime counters.
func (c *RateController) Reset() {
	c.target, c.phase, c.score = Unknown, PhaseHold, 0
}

// AIMDEstimator is the filtered, damped estimator backend: a sliding-
// window rate estimator (per-connection arrival/service statistics and
// the windowed demand estimate), a trendline slope filter classifying
// the backlog trend, and an AIMD RateController shaping the pacing
// target. It implements Estimator and is safe for concurrent use.
type AIMDEstimator struct {
	cfg AIMDConfig

	mu      sync.Mutex
	vals    *RateStats // windowed compressed-summary estimate
	trend   *Trendline
	ctrl    *RateController
	perConn map[graph.ConnID]*RateStats // per-connection raw feedback windows
	lastObs time.Duration
	haveObs bool
}

// NewAIMDEstimator returns an AIMD estimator with the given tuning
// (defaults applied to zero fields).
func NewAIMDEstimator(cfg AIMDConfig) *AIMDEstimator {
	cfg = cfg.withDefaults()
	return &AIMDEstimator{
		cfg:     cfg,
		vals:    NewRateStats(cfg.Window, cfg.MaxSamples),
		trend:   NewTrendline(cfg.Window, cfg.MaxSamples, cfg.Gain, cfg.TrendThreshold),
		ctrl:    NewRateController(cfg),
		perConn: make(map[graph.ConnID]*RateStats),
	}
}

// AIMDFactory returns an EstimatorFactory building AIMD estimators with
// the given tuning — what Policy.WithEstimator plugs in.
func AIMDFactory(cfg AIMDConfig) EstimatorFactory {
	cfg = cfg.withDefaults() // validate once, loudly, at configuration time
	return func() Estimator { return NewAIMDEstimator(cfg) }
}

// Name implements Estimator.
func (e *AIMDEstimator) Name() string { return "aimd" }

// Observe implements Estimator: per-connection arrival bookkeeping for
// every feedback event, and — for known folds — the windowed estimate,
// the trendline, and one controller update.
func (e *AIMDEstimator) Observe(now time.Duration, conn graph.ConnID, raw, compressed STP) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.haveObs && !e.liveLocked(now) {
		// Silence outlived the estimate: a damped target must not keep
		// throttling a producer whose downstream stopped reporting
		// (died, detached, faded). Drop everything; this feedback
		// re-initializes.
		e.resetLocked()
	}
	pc := e.perConn[conn]
	if pc == nil {
		pc = NewRateStats(e.cfg.Window, e.cfg.MaxSamples)
		e.perConn[conn] = pc
	}
	pc.Add(now, float64(raw))
	if !compressed.Known() {
		// Unknown carries no feedback; it must never poison the
		// estimate (the Filter cold-start contract, held here too).
		return
	}
	e.lastObs, e.haveObs = now, true
	e.vals.Add(now, float64(compressed))
	e.trend.Add(now, float64(compressed))
	e.ctrl.Update(STP(e.vals.Mean(now)), e.trend.State())
}

// liveLocked reports whether feedback arrived within the expiry. Only
// Observe expires the state; reads (Target, State) test this and change
// nothing, so whether a reader looked during a silence cannot change
// what later observations build on.
func (e *AIMDEstimator) liveLocked(now time.Duration) bool {
	return e.haveObs && now-e.lastObs <= e.cfg.Expire
}

// Target implements Estimator.
func (e *AIMDEstimator) Target(now time.Duration, fallback STP) STP {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.liveLocked(now) {
		return fallback
	}
	if t := e.ctrl.Target(); t.Known() {
		return t
	}
	return fallback
}

// ConnEstimate returns the windowed mean of the raw summary-STPs
// received on one connection — the per-connection service-period
// estimate — and whether any samples remain in the window.
func (e *AIMDEstimator) ConnEstimate(now time.Duration, conn graph.ConnID) (STP, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pc := e.perConn[conn]
	if pc == nil || pc.Count(now) == 0 {
		return Unknown, false
	}
	return STP(pc.Mean(now)), true
}

// State implements Estimator.
func (e *AIMDEstimator) State(now time.Duration) EstimatorState {
	e.mu.Lock()
	defer e.mu.Unlock()
	backoffs, speedups := e.ctrl.Counts()
	st := EstimatorState{
		Name:     "aimd",
		Phase:    e.ctrl.Phase(),
		Trend:    e.trend.State(),
		Backoffs: backoffs,
		Speedups: speedups,
	}
	if e.liveLocked(now) {
		st.Target = e.ctrl.Target()
		st.Estimate = STP(e.vals.Mean(now))
		st.FeedbackInterval = e.vals.Interval(now)
	} else {
		// Expired or cold: phase/trend read hold.
		st.Phase, st.Trend = PhaseHold, TrendHold
	}
	return st
}

// resetLocked clears all estimation state (the controller keeps its
// lifetime counters).
func (e *AIMDEstimator) resetLocked() {
	e.vals.Reset()
	e.trend.Reset()
	e.ctrl.Reset()
	for _, pc := range e.perConn {
		pc.Reset()
	}
	e.haveObs = false
}

// Reset implements Estimator.
func (e *AIMDEstimator) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resetLocked()
}

// String renders the estimator's tuning for debugging.
func (e *AIMDEstimator) String() string {
	return fmt.Sprintf("aimd(window=%v beta=%.2f step=%v margin=%.2f sustain=%d)",
		e.cfg.Window, e.cfg.Beta, e.cfg.Step, e.cfg.Margin, e.cfg.Sustain)
}
