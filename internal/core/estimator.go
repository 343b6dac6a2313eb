package core

import (
	"time"

	"repro/internal/graph"
)

// Estimator is the pluggable feedback-estimation stage of the ARU
// pipeline. It sits between the backwardSTP vector's compression and the
// pacing throttle: every summary-STP a node receives is Observed
// (timestamped, per connection), and the pacing target the node's thread
// throttles to is whatever Target returns — which may be the raw
// compressed summary (the paper's behaviour, the default), or a
// filtered, damped control signal derived from the observation history
// (the AIMD estimator, DESIGN.md §4h).
//
// The paper propagates raw last-sample summary-STPs; under jittery stage
// times the source's pacing target tracks every sample and production
// oscillates — the non-smooth behaviour §3.3.2 names as future work. An
// Estimator is where that future work plugs in, next to the per-slot
// Filter and the vector Compressor: Filter smooths one connection's
// incoming stream, Compressor folds the vector, and the Estimator turns
// the folded history into a stable actuation signal.
//
// One Estimator instance belongs to one thread node. Observe and Target
// are called from the owning thread's goroutine, but State may be called
// concurrently by snapshot readers (WriteStatus, a metrics gather),
// so implementations must be safe for concurrent use.
type Estimator interface {
	// Name identifies the estimator backend ("raw", "aimd", ...).
	Name() string
	// Observe feeds one feedback observation received at time now on
	// conn: the raw incoming summary-STP and the vector's new compressed
	// fold. Unknown values carry no feedback and must never poison the
	// estimate (mirroring the Filter cold-start contract).
	Observe(now time.Duration, conn graph.ConnID, raw, compressed STP)
	// Target returns the period the node should pace to at time now.
	// fallback is the node's raw summary-STP (the paper's pacing signal);
	// estimators return it while they have no estimate of their own —
	// cold start, or an estimate expired by feedback silence.
	Target(now time.Duration, fallback STP) STP
	// State reports the estimator's observable state at time now for
	// status output and metrics.
	State(now time.Duration) EstimatorState
	// Reset clears all estimation state (used when a node's feedback is
	// faded on permanent downstream failure).
	Reset()
}

// EstimatorFactory builds a fresh estimator per thread node. A nil
// factory means raw propagation: the pacing target is the node's
// summary-STP exactly as the paper specifies.
type EstimatorFactory func() Estimator

// EstimatorState is an estimator's observable state: what WriteStatus
// prints and a metrics gather publishes per node.
type EstimatorState struct {
	// Name is the estimator backend name.
	Name string
	// Trend is the current backlog-trend classification.
	Trend TrendState
	// Phase is the AIMD controller phase ("hold" for non-AIMD backends).
	Phase AIMDPhase
	// Target is the current damped pacing target (Unknown until the
	// estimator has initialized).
	Target STP
	// Estimate is the sliding-window estimate of the feedback signal.
	Estimate STP
	// FeedbackInterval is the mean interval between feedback samples
	// over the window (0 when fewer than two samples).
	FeedbackInterval time.Duration
	// Backoffs counts multiplicative back-offs applied so far.
	Backoffs uint64
	// Speedups counts additive speed-ups applied so far.
	Speedups uint64
}

// rawEstimator is the default backend: no state, the pacing target is
// the raw summary-STP — byte-for-byte the paper's propagation.
type rawEstimator struct{}

// NewRawEstimator returns the pass-through estimator. It exists so an
// application can plug the estimator stage explicitly and still get the
// paper's behaviour; leaving Policy.EstimatorFactory nil is equivalent
// (and cheaper: no Observe calls are made at all).
func NewRawEstimator() Estimator { return rawEstimator{} }

func (rawEstimator) Name() string                                  { return "raw" }
func (rawEstimator) Observe(time.Duration, graph.ConnID, STP, STP) {}
func (rawEstimator) Target(_ time.Duration, fallback STP) STP      { return fallback }
func (rawEstimator) State(time.Duration) EstimatorState            { return EstimatorState{Name: "raw"} }
func (rawEstimator) Reset()                                        {}

// rateSample is one timestamped observation in a RateStats window.
type rateSample struct {
	at time.Duration
	v  float64
}

// RateStats measures a signal over a bounded sliding window of
// timestamped samples: the arrival rate of samples (how often feedback
// lands) and the windowed mean of their values. It is the model-based
// alternative to acting on a single sample — a scheduler should act on
// an estimate of the rate, not on the last packet (cf. DRS and the GCC
// RateStatistics idiom).
//
// The window is bounded both by age (samples older than window are
// pruned) and by count (maxCount caps memory for bursty feedback); the
// backing ring is reused, so steady-state Adds allocate nothing.
// RateStats is not safe for concurrent use; the owning estimator
// serializes access.
type RateStats struct {
	window   time.Duration
	maxCount int
	samples  []rateSample // ring buffer
	head     int          // index of the oldest sample
	count    int
	sum      float64
}

// NewRateStats returns a sliding-window estimator retaining at most
// maxCount samples no older than window. window must be positive and
// maxCount ≥ 2.
func NewRateStats(window time.Duration, maxCount int) *RateStats {
	if window <= 0 {
		panic("core: RateStats window must be positive")
	}
	if maxCount < 2 {
		panic("core: RateStats maxCount must be ≥ 2")
	}
	return &RateStats{window: window, maxCount: maxCount, samples: make([]rateSample, maxCount)}
}

// prune drops samples older than the window relative to now.
func (r *RateStats) prune(now time.Duration) {
	for r.count > 0 {
		s := r.samples[r.head]
		if now-s.at <= r.window {
			return
		}
		r.sum -= s.v
		r.head = (r.head + 1) % len(r.samples)
		r.count--
	}
}

// Add records one sample at time now.
func (r *RateStats) Add(now time.Duration, v float64) {
	r.prune(now)
	if r.count == len(r.samples) {
		// Count-bounded: overwrite the oldest.
		r.sum -= r.samples[r.head].v
		r.head = (r.head + 1) % len(r.samples)
		r.count--
	}
	idx := (r.head + r.count) % len(r.samples)
	r.samples[idx] = rateSample{at: now, v: v}
	r.count++
	r.sum += v
}

// Count returns the number of samples currently in the window.
func (r *RateStats) Count(now time.Duration) int {
	r.prune(now)
	return r.count
}

// Mean returns the windowed mean of the sample values, or 0 when the
// window is empty.
func (r *RateStats) Mean(now time.Duration) float64 {
	r.prune(now)
	if r.count == 0 {
		return 0
	}
	return r.sum / float64(r.count)
}

// Interval returns the mean spacing between samples in the window, or 0
// when fewer than two samples remain. 1/Interval is the feedback
// arrival rate.
func (r *RateStats) Interval(now time.Duration) time.Duration {
	r.prune(now)
	if r.count < 2 {
		return 0
	}
	newest := r.samples[(r.head+r.count-1)%len(r.samples)].at
	oldest := r.samples[r.head].at
	return (newest - oldest) / time.Duration(r.count-1)
}

// Newest returns the timestamp of the most recent sample and whether one
// exists.
func (r *RateStats) Newest() (time.Duration, bool) {
	if r.count == 0 {
		return 0, false
	}
	return r.samples[(r.head+r.count-1)%len(r.samples)].at, true
}

// Reset empties the window.
func (r *RateStats) Reset() {
	r.head, r.count, r.sum = 0, 0, 0
}
