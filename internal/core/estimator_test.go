package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestRateStatsWindowPruning pins the sliding window's age bound: samples
// older than the window stop contributing to the mean.
func TestRateStatsWindowPruning(t *testing.T) {
	r := NewRateStats(100*time.Millisecond, 16)
	r.Add(ms(0), 10)
	r.Add(ms(50), 20)
	if got := r.Mean(ms(50)); got != 15 {
		t.Fatalf("mean with both samples = %v, want 15", got)
	}
	// At t=150ms the first sample (age 150ms) is out, the second (age
	// 100ms) is exactly at the bound and stays.
	if got := r.Mean(ms(150)); got != 20 {
		t.Fatalf("mean after pruning = %v, want 20", got)
	}
	if got := r.Count(ms(300)); got != 0 {
		t.Fatalf("count after full expiry = %d, want 0", got)
	}
	if got := r.Mean(ms(300)); got != 0 {
		t.Fatalf("mean of empty window = %v, want 0", got)
	}
}

// TestRateStatsCountBound pins the count bound: the ring overwrites the
// oldest sample once maxCount is reached, and the running sum follows.
func TestRateStatsCountBound(t *testing.T) {
	r := NewRateStats(time.Hour, 3)
	for i := 1; i <= 5; i++ {
		r.Add(ms(i), float64(i))
	}
	// Only 3, 4, 5 remain.
	if got := r.Count(ms(5)); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := r.Mean(ms(5)); got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
}

// TestRateStatsInterval pins the feedback-rate estimate: mean spacing
// between samples in the window.
func TestRateStatsInterval(t *testing.T) {
	r := NewRateStats(time.Second, 8)
	if got := r.Interval(0); got != 0 {
		t.Fatalf("interval of empty window = %v, want 0", got)
	}
	r.Add(ms(0), 1)
	r.Add(ms(10), 1)
	r.Add(ms(30), 1)
	if got := r.Interval(ms(30)); got != ms(15) {
		t.Fatalf("interval = %v, want 15ms", got)
	}
	at, ok := r.Newest()
	if !ok || at != ms(30) {
		t.Fatalf("newest = %v,%v, want 30ms,true", at, ok)
	}
	r.Reset()
	if got := r.Count(ms(30)); got != 0 {
		t.Fatalf("count after reset = %d, want 0", got)
	}
}

// TestTrendlineClassification pins the slope filter: a steadily rising
// signal reads overuse, a falling one underuse, a flat one hold.
func TestTrendlineClassification(t *testing.T) {
	mk := func() *Trendline { return NewTrendline(time.Second, 16, 1, 0.05) }

	up := mk()
	for i := 0; i < 8; i++ {
		up.Add(ms(i*50), 50+float64(i*10)) // +20%/50ms — far past threshold
	}
	if got := up.State(); got != TrendOveruse {
		t.Fatalf("rising signal trend = %v, want overuse", got)
	}

	down := mk()
	for i := 0; i < 8; i++ {
		down.Add(ms(i*50), 120-float64(i*10))
	}
	if got := down.State(); got != TrendUnderuse {
		t.Fatalf("falling signal trend = %v, want underuse", got)
	}

	flat := mk()
	for i := 0; i < 8; i++ {
		flat.Add(ms(i*50), 50)
	}
	if got := flat.State(); got != TrendHold {
		t.Fatalf("flat signal trend = %v, want hold", got)
	}
	flat.Reset()
	if got := flat.State(); got != TrendHold {
		t.Fatalf("trend after reset = %v, want hold", got)
	}
	if _, fitted := flat.Slope(); fitted {
		t.Fatal("slope must be unfitted after reset")
	}
}

// TestTrendlineNeedsThreeSamples: fewer than three samples produce no
// fit, so classification stays hold.
func TestTrendlineNeedsThreeSamples(t *testing.T) {
	tr := NewTrendline(time.Second, 8, 1, 0.05)
	tr.Add(ms(0), 10)
	tr.Add(ms(50), 1000)
	if got := tr.State(); got != TrendHold {
		t.Fatalf("trend with 2 samples = %v, want hold", got)
	}
}

// TestRateControllerInitAndHold: the first known estimate initializes the
// target; estimates inside the hysteresis band hold it.
func TestRateControllerInitAndHold(t *testing.T) {
	c := NewRateController(AIMDConfig{Margin: 0.10})
	if c.Target().Known() {
		t.Fatal("target must start Unknown")
	}
	c.Update(Unknown, TrendHold)
	if c.Target().Known() {
		t.Fatal("Unknown estimate must not initialize the target")
	}
	c.Update(STP(ms(50)), TrendHold)
	if got := c.Target(); got != STP(ms(50)) {
		t.Fatalf("target after init = %v, want 50ms", got)
	}
	// 52ms is inside ±10% of 50ms: hold.
	c.Update(STP(ms(52)), TrendHold)
	if got, ph := c.Target(), c.Phase(); got != STP(ms(50)) || ph != PhaseHold {
		t.Fatalf("in-band update: target=%v phase=%v, want 50ms/hold", got, ph)
	}
}

// TestRateControllerBackoffNeedsSustain: over-production must persist for
// Sustain observations before the multiplicative back-off fires, so a
// lone jitter spike never triggers one.
func TestRateControllerBackoffNeedsSustain(t *testing.T) {
	c := NewRateController(AIMDConfig{Beta: 1.5, Margin: 0.10, Sustain: 3})
	c.Update(STP(ms(50)), TrendHold) // init at 50ms

	// Demand jumps to 100ms: target 50 < lo 90 — over-production.
	c.Update(STP(ms(100)), TrendHold)
	if b, _ := c.Counts(); b != 0 || c.Phase() != PhaseHold {
		t.Fatalf("first overuse observation must not back off (backoffs=%d phase=%v)", b, c.Phase())
	}
	// One in-band observation decays the score back down.
	c.Update(STP(ms(52)), TrendHold)
	c.Update(STP(ms(100)), TrendHold)
	c.Update(STP(ms(100)), TrendHold)
	if b, _ := c.Counts(); b != 0 {
		t.Fatalf("score decay failed: %d backoffs before sustain met", b)
	}
	c.Update(STP(ms(100)), TrendHold) // third consecutive: score reaches 3
	b, _ := c.Counts()
	if b != 1 || c.Phase() != PhaseBackoff {
		t.Fatalf("sustained overuse: backoffs=%d phase=%v, want 1/backoff", b, c.Phase())
	}
	// Back-off: max(target, est) * Beta = 100ms * 1.5.
	if got := c.Target(); got != STP(ms(150)) {
		t.Fatalf("backed-off target = %v, want 150ms", got)
	}
}

// TestRateControllerOveruseTrendAccelerates: a rising trend counts double
// toward the sustain score, so a genuine demand increase backs off in
// fewer observations.
func TestRateControllerOveruseTrendAccelerates(t *testing.T) {
	c := NewRateController(AIMDConfig{Margin: 0.10, Sustain: 4})
	c.Update(STP(ms(50)), TrendHold)
	c.Update(STP(ms(100)), TrendOveruse) // score 2
	c.Update(STP(ms(100)), TrendOveruse) // score 4 → backoff
	if b, _ := c.Counts(); b != 1 {
		t.Fatalf("backoffs = %d, want 1 after two rising-trend observations", b)
	}
}

// TestRateControllerSpeedupFloorsAtBand: slack walks the target down one
// additive step per update, stopping at the band's lower edge rather
// than probing past the signalled demand.
func TestRateControllerSpeedupFloorsAtBand(t *testing.T) {
	c := NewRateController(AIMDConfig{Step: ms(2), Margin: 0.10})
	c.Update(STP(ms(100)), TrendHold) // init at 100ms
	// Demand speeds up to 50ms: target 100 > hi 55 — slack.
	c.Update(STP(ms(50)), TrendHold)
	if got, ph := c.Target(), c.Phase(); got != STP(ms(98)) || ph != PhaseSpeedup {
		t.Fatalf("speedup: target=%v phase=%v, want 98ms/speedup", got, ph)
	}
	for i := 0; i < 100; i++ {
		c.Update(STP(ms(50)), TrendHold)
	}
	// The walk must stop inside the band, never below lo = 45ms.
	got := c.Target()
	if got < STP(ms(45)) || got > STP(ms(55)) {
		t.Fatalf("settled target = %v, want within band [45ms, 55ms]", got)
	}
	// A rising trend vetoes the speed-up (the slack may be evaporating).
	before := c.Target()
	c.Update(STP(ms(10)), TrendOveruse)
	if c.Target() != before || c.Phase() == PhaseSpeedup {
		t.Fatalf("speedup must not fire under a rising trend")
	}
}

// TestRateControllerClamp pins the MinTarget/MaxTarget bounds.
func TestRateControllerClamp(t *testing.T) {
	c := NewRateController(AIMDConfig{
		Beta: 10, Margin: 0.10, Sustain: 1,
		MinTarget: STP(ms(20)), MaxTarget: STP(ms(80)),
	})
	c.Update(STP(ms(10)), TrendHold)
	if got := c.Target(); got != STP(ms(20)) {
		t.Fatalf("init clamped = %v, want MinTarget 20ms", got)
	}
	c.Update(STP(ms(70)), TrendHold) // 20 < 63: overuse, sustain 1 → ×10, clamped
	if got := c.Target(); got != STP(ms(80)) {
		t.Fatalf("backed-off clamped = %v, want MaxTarget 80ms", got)
	}
}

// TestRateControllerReset: estimation state clears, lifetime counters
// survive (they feed monotonic metrics).
func TestRateControllerReset(t *testing.T) {
	c := NewRateController(AIMDConfig{Sustain: 1})
	c.Update(STP(ms(50)), TrendHold)
	c.Update(STP(ms(200)), TrendHold)
	b0, _ := c.Counts()
	if b0 == 0 {
		t.Fatal("setup: expected a backoff")
	}
	c.Reset()
	if c.Target().Known() || c.Phase() != PhaseHold {
		t.Fatalf("reset left target=%v phase=%v", c.Target(), c.Phase())
	}
	if b, _ := c.Counts(); b != b0 {
		t.Fatalf("reset dropped lifetime counters: %d, want %d", b, b0)
	}
}

// TestAIMDConfigValidation pins the loud-failure contract on nonsense
// tunings.
func TestAIMDConfigValidation(t *testing.T) {
	for name, cfg := range map[string]AIMDConfig{
		"beta<1":     {Beta: 0.5},
		"gain>1":     {Gain: 1.5},
		"maxCount<3": {MaxSamples: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewAIMDEstimator(cfg)
		}()
	}
	def := DefaultAIMDConfig()
	if def.Beta < 1 || def.Window <= 0 || def.Expire <= 0 {
		t.Fatalf("defaults unusable: %+v", def)
	}
}

// TestAIMDEstimatorUnknownNeverPoisons pins the estimator-stage
// cold-start contract: Unknown observations — before, between, and after
// known ones — never initialize or corrupt the estimate.
func TestAIMDEstimatorUnknownNeverPoisons(t *testing.T) {
	e := NewAIMDEstimator(AIMDConfig{})
	conn := graph.ConnID(1)
	fallback := STP(ms(75))

	// Cold: only Unknown observed → Target is the fallback.
	e.Observe(ms(0), conn, Unknown, Unknown)
	if got := e.Target(ms(0), fallback); got != fallback {
		t.Fatalf("cold target = %v, want fallback %v", got, fallback)
	}
	st := e.State(ms(0))
	if st.Target.Known() || st.Estimate.Known() {
		t.Fatalf("Unknown observations initialized state: %+v", st)
	}

	// Known feedback initializes.
	for i := 1; i <= 4; i++ {
		e.Observe(ms(i*10), conn, STP(ms(50)), STP(ms(50)))
	}
	if got := e.Target(ms(40), fallback); got != STP(ms(50)) {
		t.Fatalf("initialized target = %v, want 50ms", got)
	}

	// Unknown again (upstream lost feedback): the smoothed state must
	// hold, not reset or absorb zeros.
	e.Observe(ms(50), conn, Unknown, Unknown)
	if got := e.Target(ms(50), fallback); got != STP(ms(50)) {
		t.Fatalf("target after Unknown = %v, want 50ms untouched", got)
	}
	if st := e.State(ms(50)); st.Estimate != STP(ms(50)) {
		t.Fatalf("estimate after Unknown = %v, want 50ms untouched", st.Estimate)
	}
}

// TestAIMDEstimatorExpiry: feedback silence past Expire discards the
// damped target — a producer must not keep pacing to a dead consumer's
// ghost — and the next feedback re-initializes cleanly.
func TestAIMDEstimatorExpiry(t *testing.T) {
	e := NewAIMDEstimator(AIMDConfig{Window: time.Second, Expire: 2 * time.Second})
	conn := graph.ConnID(1)
	fallback := STP(ms(30))
	for i := 0; i < 4; i++ {
		e.Observe(ms(i*100), conn, STP(ms(50)), STP(ms(50)))
	}
	if got := e.Target(ms(400), fallback); got != STP(ms(50)) {
		t.Fatalf("live target = %v, want 50ms", got)
	}
	// 2.5s of silence: expired.
	if got := e.Target(ms(2900), fallback); got != fallback {
		t.Fatalf("expired target = %v, want fallback %v", got, fallback)
	}
	if st := e.State(ms(2900)); st.Target.Known() || st.Trend != TrendHold || st.Phase != PhaseHold {
		t.Fatalf("expired state not reset: %+v", st)
	}
	// Fresh feedback re-initializes.
	e.Observe(ms(3000), conn, STP(ms(80)), STP(ms(80)))
	if got := e.Target(ms(3000), fallback); got != STP(ms(80)) {
		t.Fatalf("re-initialized target = %v, want 80ms", got)
	}
}

// TestAIMDEstimatorReadsDoNotSteer: whether a reader (a Snapshot, a
// scrape, a scheduler tick) looks at an estimator during a feedback
// silence must not change what the next observations build on. Two
// estimators get the same feed — 40 samples around 50ms, a silence far
// past Expire, then 5 samples around 120ms — and only one is read in
// the gap; afterwards both must agree exactly.
func TestAIMDEstimatorReadsDoNotSteer(t *testing.T) {
	read := NewAIMDEstimator(AIMDConfig{})
	unread := NewAIMDEstimator(AIMDConfig{})
	conn := graph.ConnID(1)
	feed := func(now time.Duration, v STP) {
		read.Observe(now, conn, v, v)
		unread.Observe(now, conn, v, v)
	}
	now := time.Duration(0)
	for i := 0; i < 40; i++ {
		v := STP(ms(48 + 4*(i%2)))
		now += v.Duration()
		feed(now, v)
	}
	read.State(now + 8*time.Second) // the only difference: one read in the silence, past Expire
	now += 10 * time.Second
	for i := 0; i < 5; i++ {
		v := STP(ms(118 + 4*(i%2)))
		now += v.Duration()
		feed(now, v)
	}
	a, b := read.State(now), unread.State(now)
	if a.Target != b.Target || a.Backoffs != b.Backoffs || a.Speedups != b.Speedups {
		t.Fatalf("a read during the silence steered the estimator: read target %v (backoffs %d, speedups %d), unread %v (backoffs %d, speedups %d)",
			a.Target, a.Backoffs, a.Speedups, b.Target, b.Backoffs, b.Speedups)
	}
	if fb := STP(ms(1)); read.Target(now, fb) != unread.Target(now, fb) {
		t.Fatalf("targets differ after the silence: %v vs %v", read.Target(now, fb), unread.Target(now, fb))
	}
}

// TestAIMDEstimatorConnEstimate pins the per-connection service-period
// window: each connection's raw feedback is tracked separately.
func TestAIMDEstimatorConnEstimate(t *testing.T) {
	e := NewAIMDEstimator(AIMDConfig{})
	a, b := graph.ConnID(1), graph.ConnID(2)
	for i := 0; i < 3; i++ {
		e.Observe(ms(i*10), a, STP(ms(40)), STP(ms(40)))
		e.Observe(ms(i*10+5), b, STP(ms(80)), STP(ms(40)))
	}
	if got, ok := e.ConnEstimate(ms(30), a); !ok || got != STP(ms(40)) {
		t.Fatalf("conn a estimate = %v,%v, want 40ms,true", got, ok)
	}
	if got, ok := e.ConnEstimate(ms(30), b); !ok || got != STP(ms(80)) {
		t.Fatalf("conn b estimate = %v,%v, want 80ms,true", got, ok)
	}
	if _, ok := e.ConnEstimate(ms(30), graph.ConnID(9)); ok {
		t.Fatal("unseen conn must report no estimate")
	}
}

// TestRawEstimatorPassThrough: the default backend is a pure fallback
// pass-through with empty state.
func TestRawEstimatorPassThrough(t *testing.T) {
	e := NewRawEstimator()
	e.Observe(ms(0), graph.ConnID(1), STP(ms(10)), STP(ms(10)))
	if got := e.Target(ms(0), STP(ms(42))); got != STP(ms(42)) {
		t.Fatalf("raw target = %v, want the 42ms fallback", got)
	}
	if st := e.State(ms(0)); st.Name != "raw" || st.Target.Known() {
		t.Fatalf("raw state = %+v", st)
	}
	e.Reset()
}

// jitteryFeedback simulates the jittery-consumer scenario on a manual
// clock: feedback arrives every tick with period mean±spread (uniform,
// seeded). Returns the raw feedback values and the estimator's target
// after each tick.
func jitteryFeedback(e Estimator, clk *clock.Manual, ticks int, tick, mean, spread time.Duration, seed int64) (raws, targets []STP) {
	rng := rand.New(rand.NewSource(seed))
	conn := graph.ConnID(1)
	for i := 0; i < ticks; i++ {
		clk.Advance(tick)
		v := STP(mean + time.Duration(rng.Int63n(int64(2*spread))) - spread)
		e.Observe(clk.Now(), conn, v, v)
		raws = append(raws, v)
		targets = append(targets, e.Target(clk.Now(), v))
	}
	return raws, targets
}

// signFlips counts direction reversals in the sequence of successive
// deltas — the no-oscillation oracle. Zero deltas (holds) don't reset
// the last direction, so a slow sawtooth is still counted.
func signFlips(vals []STP) int {
	flips, last := 0, 0
	for i := 1; i < len(vals); i++ {
		d := int64(vals[i]) - int64(vals[i-1])
		sign := 0
		if d > 0 {
			sign = 1
		} else if d < 0 {
			sign = -1
		}
		if sign != 0 {
			if last != 0 && sign != last {
				flips++
			}
			last = sign
		}
	}
	return flips
}

// stddevSTP returns the standard deviation of a period series in
// float64 nanoseconds.
func stddevSTP(vals []STP) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	mean := sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)))
}

// TestAIMDConvergenceManualClock is the convergence regression pin: under
// the jittery-consumer scenario (bottleneck 50ms ± 30ms, uniform,
// seeded) the AIMD target must converge to within 10% of the bottleneck
// *rate* within 100 ticks, then hold with a bounded number of pacing
// sign flips and at least 2x less steady-state jitter than the raw
// last-sample signal it replaces.
func TestAIMDConvergenceManualClock(t *testing.T) {
	const (
		ticks     = 300
		converged = 100 // convergence budget, in ticks
		bottleMs  = 50
	)
	clk := clock.NewManual()
	e := NewAIMDEstimator(AIMDConfig{Window: 2 * time.Second, Margin: 0.05})
	raws, targets := jitteryFeedback(e, clk, ticks, ms(50), ms(bottleMs), ms(30), 7)

	// Convergence: the steady-state source rate — 1/mean(target) over the
	// post-budget window — must sit within 10% of the bottleneck rate.
	// (Per-tick targets ride a shallow AIMD sawtooth: an occasional
	// back-off overshoot walked back by additive steps; the paced *rate*
	// is the controlled quantity.)
	steady := targets[converged:]
	rawSteady := raws[converged:]
	var sum float64
	for _, v := range steady {
		if !v.Known() {
			t.Fatal("target Unknown after convergence budget")
		}
		sum += float64(v)
	}
	meanTarget := sum / float64(len(steady))
	bottleRate := 1.0 / float64(ms(bottleMs))
	rate := 1.0 / meanTarget
	if diff := math.Abs(rate-bottleRate) / bottleRate; diff > 0.10 {
		t.Fatalf("steady-state rate is %.1f%% off the bottleneck (mean target %.2fms, want ≤10%%)",
			diff*100, meanTarget/1e6)
	}

	// No-oscillation oracle: the damped signal reverses direction rarely;
	// the raw signal reverses on most ticks.
	flips, rawFlips := signFlips(steady), signFlips(rawSteady)
	if flips > 20 || flips*4 > rawFlips {
		t.Fatalf("steady-state pacing sign flips = %d (raw %d), want ≤ 20 and ≤ raw/4",
			flips, rawFlips)
	}

	// Jitter pin: ≥2x lower steady-state stddev than raw propagation.
	rawJit, aimdJit := stddevSTP(rawSteady), stddevSTP(steady)
	if aimdJit*2 > rawJit {
		t.Fatalf("steady-state jitter: aimd=%.3fms raw=%.3fms, want aimd ≤ raw/2",
			aimdJit/1e6, rawJit/1e6)
	}
}

// TestAIMDTracksStepChange: when the bottleneck slows (a demand step),
// the multiplicative back-off must move the target to the new demand
// within a bounded number of feedback ticks.
func TestAIMDTracksStepChange(t *testing.T) {
	clk := clock.NewManual()
	e := NewAIMDEstimator(AIMDConfig{Window: time.Second, Margin: 0.05})
	conn := graph.ConnID(1)
	feed := func(v STP, n int) {
		for i := 0; i < n; i++ {
			clk.Advance(ms(50))
			e.Observe(clk.Now(), conn, v, v)
		}
	}
	feed(STP(ms(50)), 40)
	if got := e.Target(clk.Now(), Unknown); got < STP(ms(45)) || got > STP(ms(55)) {
		t.Fatalf("pre-step target = %v, want ≈50ms", got)
	}
	// Step: consumer slows to 200ms. The window (1s = 20 samples) flushes
	// old demand and the back-offs compound toward the new period.
	feed(STP(ms(200)), 60)
	got := e.Target(clk.Now(), Unknown)
	if got < STP(ms(180)) || got > STP(ms(230)) {
		t.Fatalf("post-step target = %v, want ≈200ms (±10%%+margin)", got)
	}
	// Step back down: additive probing recovers the faster rate.
	feed(STP(ms(50)), 200)
	got = e.Target(clk.Now(), Unknown)
	if got < STP(ms(45)) || got > STP(ms(60)) {
		t.Fatalf("recovered target = %v, want ≈50ms", got)
	}
}

// TestControllerEstimatorWiring pins the controller integration: thread
// nodes under an estimator-bearing policy pace to the damped target,
// buffer nodes never grow an estimator, snapshots expose the state, and
// FadeNode resets the stage.
func TestControllerEstimatorWiring(t *testing.T) {
	g := graph.New()
	src := g.MustAddNode(graph.KindThread, "src", 0)
	ch := g.MustAddNode(graph.KindChannel, "ch", 0)
	sink := g.MustAddNode(graph.KindThread, "sink", 0)
	put := g.MustConnect(src, ch)
	get := g.MustConnect(ch, sink)

	clk := clock.NewManual()
	p := PolicyMin().WithEstimator(AIMDFactory(AIMDConfig{Window: time.Second}))
	c := NewControllerOn(g, p, clk)

	if c.State(ch).Estimator() != nil {
		t.Fatal("buffer node must not grow an estimator")
	}
	if c.State(src).Estimator() == nil {
		t.Fatal("thread node must grow an estimator")
	}
	if _, ok := c.EstimatorState(ch); ok {
		t.Fatal("EstimatorState must report false for buffer nodes")
	}

	// Drive steady 50ms feedback from the sink through the piggyback
	// path; the source's target must initialize to it.
	for i := 0; i < 10; i++ {
		clk.Advance(ms(50))
		c.SetCurrentSTP(sink, STP(ms(50)))
		c.NoteGet(get)
		c.NotePut(put)
	}
	if got := c.TargetPeriod(src); got != STP(ms(50)) {
		t.Fatalf("TargetPeriod = %v, want 50ms", got)
	}
	es, ok := c.EstimatorState(src)
	if !ok || es.Name != "aimd" || es.Estimate != STP(ms(50)) {
		t.Fatalf("EstimatorState = %+v,%v", es, ok)
	}
	var snapEst *EstimatorState
	for _, ns := range c.Snapshot() {
		if ns.Name == "src" {
			snapEst = ns.Estimator
		}
	}
	if snapEst == nil || snapEst.Estimate != STP(ms(50)) {
		t.Fatalf("snapshot estimator = %+v, want estimate 50ms", snapEst)
	}

	// FadeNode resets the stage along with the node's feedback.
	c.FadeNode(src)
	if es, _ := c.EstimatorState(src); es.Target.Known() {
		t.Fatalf("estimator target survived FadeNode: %+v", es)
	}
}

// TestControllerRawDefaultUnchanged: without an estimator factory the
// controller's pacing signal is exactly the summary-STP — the paper's
// behaviour, byte-for-byte.
func TestControllerRawDefaultUnchanged(t *testing.T) {
	g, a, putConns, getConns := fanoutGraph(t)
	c := NewController(g, PolicyMin())
	feedFanout(c, g, putConns, getConns, figureReports)
	if got := c.TargetPeriod(a); got != c.State(a).Summary() {
		t.Fatalf("raw TargetPeriod %v != Summary %v", got, c.State(a).Summary())
	}
	if c.State(a).Estimator() != nil {
		t.Fatal("nil factory must leave the estimator stage unplugged")
	}
}

// TestEstimatorConcurrentState: State must be callable concurrently with
// Observe/Target (the snapshot/gather path) — run with -race.
func TestEstimatorConcurrentState(t *testing.T) {
	e := NewAIMDEstimator(AIMDConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			e.Observe(ms(i), graph.ConnID(1), STP(ms(50)), STP(ms(50)))
			e.Target(ms(i), Unknown)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = e.State(ms(i))
	}
	<-done
}

// TestTrendlineMatchesDirectFit: the fit equals, bit for bit, a direct
// least-squares fit over the window in time order, however far the ring
// has wrapped and pruned.
func TestTrendlineMatchesDirectFit(t *testing.T) {
	tr := NewTrendline(300*time.Millisecond, 16, 1, 0.05)
	var at []time.Duration
	var vs []float64
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		now += time.Duration(1+(i*37)%29) * time.Millisecond
		v := 40 + float64((i*13)%17)
		tr.Add(now, v)
		at, vs = append(at, now), append(vs, v)
		for len(at) > 16 || now-at[0] > 300*time.Millisecond {
			at, vs = at[1:], vs[1:]
		}
		if len(at) < 3 {
			continue
		}
		var sumT, sumV float64
		for k := range at {
			sumT += at[k].Seconds()
			sumV += vs[k]
		}
		n := float64(len(at))
		meanT, meanV := sumT/n, sumV/n
		var num, den float64
		for k := range at {
			dt := at[k].Seconds() - meanT
			num += dt * (vs[k] - meanV)
			den += dt * dt
		}
		if got, _ := tr.fitLocked(); got != (num/den)/meanV {
			t.Fatalf("sample %d: fit %v, direct fit %v", i, got, (num/den)/meanV)
		}
	}
}
