package stats

import (
	"math"
	"sort"
	"time"
)

// Jitter computes the paper's jitter metric over a sequence of output
// timestamps: the standard deviation of the time difference between
// successive output frames (§4). Fewer than three outputs yield 0 (no two
// gaps to vary between).
func Jitter(outputs []time.Duration) time.Duration {
	if len(outputs) < 3 {
		return 0
	}
	var w Welford
	for i := 1; i < len(outputs); i++ {
		w.Add(float64(outputs[i] - outputs[i-1]))
	}
	return time.Duration(w.Std())
}

// Gaps returns the successive differences of a timestamp sequence.
func Gaps(outputs []time.Duration) []time.Duration {
	if len(outputs) < 2 {
		return nil
	}
	gaps := make([]time.Duration, 0, len(outputs)-1)
	for i := 1; i < len(outputs); i++ {
		gaps = append(gaps, outputs[i]-outputs[i-1])
	}
	return gaps
}

// Throughput returns outputs per second over the observation window. A
// non-positive window yields 0.
func Throughput(count int, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(count) / window.Seconds()
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples using linear
// interpolation between closest ranks. It copies and sorts its input.
// Empty input yields NaN.
func Quantile(samples []float64, q float64) float64 {
	return Quantiles(samples, q)[0]
}

// Quantiles returns Quantile(samples, q) for each q, copying and sorting
// the samples once.
func Quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// quantileSorted interpolates the q-quantile of sorted samples.
func quantileSorted(s []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// DurationStats summarizes a slice of durations with a Welford pass.
func DurationStats(ds []time.Duration) (mean, std time.Duration) {
	var w Welford
	for _, d := range ds {
		w.Add(float64(d))
	}
	return time.Duration(w.Mean()), time.Duration(w.Std())
}
