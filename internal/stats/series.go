package stats

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// StepSeries is a right-continuous step function of time: the value set at
// time t holds until the next recorded point. It models the application
// memory footprint, which changes only at item allocation and free events.
//
// The paper computes (§4):
//
//	MUμ = Σ( MU(t_{i+1}) × (t_{i+1} − t_i) ) / (t_N − t_0)
//	MUσ = sqrt( Σ( (MUμ − MU(t_{i+1}))² × (t_{i+1} − t_i) ) / (t_N − t_0) )
//
// i.e. a time-weighted mean and standard deviation over the step function.
type StepSeries struct {
	times  []time.Duration
	values []float64
}

// NewStepSeries returns an empty series.
func NewStepSeries() *StepSeries { return &StepSeries{} }

// Record appends the value taking effect at time t. Points must be
// recorded in non-decreasing time order; Record panics otherwise, since an
// out-of-order point indicates a bug in event collection. Recording a new
// value at an existing latest time overwrites it (the last write at an
// instant wins, matching event coalescing).
func (s *StepSeries) Record(t time.Duration, v float64) {
	if n := len(s.times); n > 0 {
		last := s.times[n-1]
		if t < last {
			panic(fmt.Sprintf("stats: StepSeries.Record out of order: %v after %v", t, last))
		}
		if t == last {
			s.values[n-1] = v
			return
		}
	}
	s.times = append(s.times, t)
	s.values = append(s.values, v)
}

// Grow makes room for n more points without reallocating.
func (s *StepSeries) Grow(n int) {
	s.times = slices.Grow(s.times, n)
	s.values = slices.Grow(s.values, n)
}

// Len returns the number of recorded points.
func (s *StepSeries) Len() int { return len(s.times) }

// At returns the series value at time t: the value of the latest point at
// or before t, or 0 before the first point.
func (s *StepSeries) At(t time.Duration) float64 {
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t })
	if i == 0 {
		return 0
	}
	return s.values[i-1]
}

// Point returns the i-th recorded (time, value) pair.
func (s *StepSeries) Point(i int) (time.Duration, float64) {
	return s.times[i], s.values[i]
}

// TimeWeighted integrates the series over [from, to] and returns the
// time-weighted mean and (population) standard deviation per the paper's
// MUμ / MUσ formulas. The span before the first point contributes value 0.
// An empty interval returns zeros.
func (s *StepSeries) TimeWeighted(from, to time.Duration) (mean, std float64) {
	if to <= from {
		return 0, 0
	}
	total := float64(to - from)

	var sum float64
	s.eachSegment(from, to, func(dt time.Duration, v float64) {
		sum += v * float64(dt)
	})
	mean = sum / total

	var varSum float64
	s.eachSegment(from, to, func(dt time.Duration, v float64) {
		d := v - mean
		varSum += d * d * float64(dt)
	})
	return mean, math.Sqrt(varSum / total)
}

// Integral returns the integral of the series over [from, to]
// (value × time, e.g. byte·seconds for a footprint series).
func (s *StepSeries) Integral(from, to time.Duration) float64 {
	var sum float64
	s.eachSegment(from, to, func(dt time.Duration, v float64) {
		sum += v * float64(dt)
	})
	return sum
}

// Peak returns the maximum value attained within [from, to], considering
// the value carried into the window as well. An empty window returns 0.
func (s *StepSeries) Peak(from, to time.Duration) float64 {
	peak := math.Inf(-1)
	seen := false
	s.eachSegment(from, to, func(dt time.Duration, v float64) {
		seen = true
		if v > peak {
			peak = v
		}
	})
	if !seen {
		return 0
	}
	return peak
}

// StepSummary is the time-weighted digest of a series over a window.
type StepSummary struct {
	// Mean and Std are TimeWeighted's results, Peak is Peak's and
	// Integral is Integral's.
	Mean, Std, Peak, Integral float64
}

// Summary digests the series over [from, to] in two passes where
// TimeWeighted, Peak and Integral take four. Each figure is the same sum
// over the same segments in the same order, so the results are bit for
// bit theirs.
func (s *StepSeries) Summary(from, to time.Duration) StepSummary {
	var m StepSummary
	if to <= from {
		return m
	}
	m.Peak = math.Inf(-1)
	s.eachSegment(from, to, func(dt time.Duration, v float64) {
		m.Integral += v * float64(dt)
		if v > m.Peak {
			m.Peak = v
		}
	})
	total := float64(to - from)
	m.Mean = m.Integral / total
	var varSum float64
	s.eachSegment(from, to, func(dt time.Duration, v float64) {
		d := v - m.Mean
		varSum += d * d * float64(dt)
	})
	m.Std = math.Sqrt(varSum / total)
	return m
}

// eachSegment invokes fn for every constant segment of the series clipped
// to [from, to], passing the segment duration and value. Zero-length
// segments are skipped.
func (s *StepSeries) eachSegment(from, to time.Duration, fn func(dt time.Duration, v float64)) {
	if to <= from {
		return
	}
	cursor := from
	cur := s.At(from)
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > from })
	for ; i < len(s.times) && s.times[i] < to; i++ {
		if dt := s.times[i] - cursor; dt > 0 {
			fn(dt, cur)
		}
		cursor = s.times[i]
		cur = s.values[i]
	}
	if dt := to - cursor; dt > 0 {
		fn(dt, cur)
	}
}

// Downsample returns at most n points approximating the series by sampling
// it at uniform offsets over [from, to]. It is used to emit plot data for
// the footprint-versus-time figures without dumping every event.
func (s *StepSeries) Downsample(from, to time.Duration, n int) (times []time.Duration, values []float64) {
	if n <= 0 || to <= from {
		return nil, nil
	}
	if n == 1 {
		return []time.Duration{from}, []float64{s.At(from)}
	}
	step := (to - from) / time.Duration(n-1)
	if step <= 0 {
		step = 1
	}
	for t := from; t <= to && len(times) < n; t += step {
		times = append(times, t)
		values = append(values, s.At(t))
	}
	return times, values
}

// WriteCSV writes "time_us,value" rows for at most n uniform samples over
// [from, to], preceded by a header naming the value column.
func (s *StepSeries) WriteCSV(w io.Writer, valueName string, from, to time.Duration, n int) error {
	if _, err := fmt.Fprintf(w, "time_us,%s\n", valueName); err != nil {
		return err
	}
	times, values := s.Downsample(from, to, n)
	for i := range times {
		if _, err := fmt.Fprintf(w, "%d,%.0f\n", times[i].Microseconds(), values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Counter is a convenience wrapper maintaining a running total recorded
// into a StepSeries, e.g. live bytes in all channels.
type Counter struct {
	series *StepSeries
	total  float64
}

// NewCounter returns a counter starting at 0 recorded at time 0.
func NewCounter() *Counter {
	c := &Counter{series: NewStepSeries()}
	c.series.Record(0, 0)
	return c
}

// Add changes the total by delta at time t and records the new level.
func (c *Counter) Add(t time.Duration, delta float64) {
	c.total += delta
	c.series.Record(t, c.total)
}

// Total returns the current running total.
func (c *Counter) Total() float64 { return c.total }

// Series exposes the underlying step series.
func (c *Counter) Series() *StepSeries { return c.series }
