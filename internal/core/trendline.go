package core

import "time"

// TrendState classifies the trend of the feedback signal: is downstream
// demand (the compressed summary-STP, our proxy for backlog pressure)
// growing, shrinking, or flat?
type TrendState int8

const (
	// TrendUnderuse: the demanded period is falling — downstream is
	// speeding up, slack is opening.
	TrendUnderuse TrendState = -1
	// TrendHold: no significant trend.
	TrendHold TrendState = 0
	// TrendOveruse: the demanded period is rising — downstream is
	// slowing, pressure is building.
	TrendOveruse TrendState = 1
)

// String renders the trend for status output.
func (t TrendState) String() string {
	switch t {
	case TrendUnderuse:
		return "underuse"
	case TrendOveruse:
		return "overuse"
	default:
		return "hold"
	}
}

// trendSample is one (time, value) point of a Trendline window; sec is
// at in seconds, converted once on Add.
type trendSample struct {
	at  time.Duration
	sec float64
	v   float64
}

// Trendline fits a least-squares line through a bounded window of
// timestamped feedback samples and classifies its slope as
// overuse/hold/underuse — the GCC trendline-filter idiom transplanted
// from delay gradients to summary-STP gradients. The raw least-squares
// slope is smoothed through a Kalman-style gain before thresholding, so
// one outlier sample cannot flip the classification.
//
// The slope is normalized by the window's mean value, making the
// threshold a relative drift rate (fraction of the signal per second)
// that works unchanged whether periods sit at 5ms or 5s.
// Trendline is not safe for concurrent use; the owning estimator
// serializes access.
type Trendline struct {
	window    time.Duration
	maxCount  int
	gain      float64 // smoothing gain applied to each new slope fit
	threshold float64 // |smoothed slope| below this is Hold (fraction/sec)

	samples []trendSample // ring buffer
	head    int
	count   int
	slope   float64 // smoothed normalized slope, fraction/sec
	fitted  bool
}

// NewTrendline returns a slope filter over a window of timestamped
// samples. gain in (0, 1] smooths successive slope fits (1 disables
// smoothing); threshold is the relative drift rate (fraction of the
// signal per second) below which the trend reads Hold.
func NewTrendline(window time.Duration, maxCount int, gain, threshold float64) *Trendline {
	if window <= 0 {
		panic("core: Trendline window must be positive")
	}
	if maxCount < 3 {
		panic("core: Trendline maxCount must be ≥ 3")
	}
	if gain <= 0 || gain > 1 {
		panic("core: Trendline gain must be in (0, 1]")
	}
	if threshold <= 0 {
		panic("core: Trendline threshold must be positive")
	}
	return &Trendline{
		window: window, maxCount: maxCount, gain: gain, threshold: threshold,
		samples: make([]trendSample, maxCount),
	}
}

// prune drops samples older than the window relative to now.
func (t *Trendline) prune(now time.Duration) {
	for t.count > 0 && now-t.samples[t.head].at > t.window {
		t.advance()
	}
}

// advance drops the oldest sample.
func (t *Trendline) advance() {
	if t.head++; t.head == len(t.samples) {
		t.head = 0
	}
	t.count--
}

// Add records one feedback sample and refreshes the smoothed slope.
func (t *Trendline) Add(now time.Duration, v float64) {
	t.prune(now)
	if t.count == len(t.samples) {
		t.advance()
	}
	i := t.head + t.count
	if i >= len(t.samples) {
		i -= len(t.samples)
	}
	t.samples[i] = trendSample{at: now, sec: now.Seconds(), v: v}
	t.count++

	fit, ok := t.fitLocked()
	if !ok {
		return
	}
	if !t.fitted {
		t.slope, t.fitted = fit, true
		return
	}
	t.slope += t.gain * (fit - t.slope)
}

// runs returns the window oldest first, as the ring's two contiguous
// runs.
func (t *Trendline) runs() [2][]trendSample {
	end := t.head + t.count
	if end <= len(t.samples) {
		return [2][]trendSample{t.samples[t.head:end]}
	}
	return [2][]trendSample{t.samples[t.head:], t.samples[:end-len(t.samples)]}
}

// fitLocked computes the least-squares slope of the window, normalized
// by the mean value: fraction of the signal per second. It needs at
// least three samples spanning non-zero time and a non-zero mean.
func (t *Trendline) fitLocked() (float64, bool) {
	if t.count < 3 {
		return 0, false
	}
	runs := t.runs()
	var sumT, sumV float64
	for _, run := range runs {
		for _, s := range run {
			sumT += s.sec
			sumV += s.v
		}
	}
	n := float64(t.count)
	meanT, meanV := sumT/n, sumV/n
	if meanV == 0 {
		return 0, false
	}
	var num, den float64
	for _, run := range runs {
		for _, s := range run {
			dt := s.sec - meanT
			num += dt * (s.v - meanV)
			den += dt * dt
		}
	}
	if den == 0 {
		return 0, false
	}
	return (num / den) / meanV, true
}

// Slope returns the smoothed normalized slope (fraction of the signal
// per second) and whether a fit exists yet.
func (t *Trendline) Slope() (float64, bool) { return t.slope, t.fitted }

// State classifies the smoothed slope against the threshold.
func (t *Trendline) State() TrendState {
	if !t.fitted {
		return TrendHold
	}
	switch {
	case t.slope > t.threshold:
		return TrendOveruse
	case t.slope < -t.threshold:
		return TrendUnderuse
	default:
		return TrendHold
	}
}

// Reset clears the window and the smoothed slope.
func (t *Trendline) Reset() {
	t.head, t.count, t.slope, t.fitted = 0, 0, 0, false
}
