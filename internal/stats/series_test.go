package stats

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestStepSeriesAt(t *testing.T) {
	s := NewStepSeries()
	s.Record(ms(10), 5)
	s.Record(ms(20), 8)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0}, {ms(9), 0}, {ms(10), 5}, {ms(15), 5}, {ms(20), 8}, {ms(100), 8},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStepSeriesRecordSameInstantOverwrites(t *testing.T) {
	s := NewStepSeries()
	s.Record(ms(10), 5)
	s.Record(ms(10), 7)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if got := s.At(ms(10)); got != 7 {
		t.Fatalf("At = %v, want 7 (last write wins)", got)
	}
}

func TestStepSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record must panic")
		}
	}()
	s := NewStepSeries()
	s.Record(ms(10), 1)
	s.Record(ms(5), 2)
}

func TestTimeWeightedMeanStd(t *testing.T) {
	// Value 0 on [0,10), 4 on [10,20), 8 on [20,40): over [0,40]
	// mean = (0*10 + 4*10 + 8*20)/40 = 3.0... wait: (0+40+160)/40 = 5.
	s := NewStepSeries()
	s.Record(ms(10), 4)
	s.Record(ms(20), 8)
	mean, std := s.TimeWeighted(0, ms(40))
	if !almostEqual(mean, 5, 1e-9) {
		t.Errorf("mean = %v, want 5", mean)
	}
	// variance = (25*10 + 1*10 + 9*20)/40 = (250+10+180)/40 = 11
	if !almostEqual(std, math.Sqrt(11), 1e-9) {
		t.Errorf("std = %v, want sqrt(11)", std)
	}
}

func TestTimeWeightedWindowClipping(t *testing.T) {
	s := NewStepSeries()
	s.Record(0, 2)
	s.Record(ms(100), 6)
	// Window entirely inside the first segment.
	mean, std := s.TimeWeighted(ms(10), ms(50))
	if !almostEqual(mean, 2, 1e-9) || std != 0 {
		t.Errorf("clipped mean/std = %v/%v", mean, std)
	}
	// Empty window.
	mean, std = s.TimeWeighted(ms(50), ms(50))
	if mean != 0 || std != 0 {
		t.Error("empty window must yield zeros")
	}
}

func TestIntegralAndPeak(t *testing.T) {
	s := NewStepSeries()
	s.Record(0, 1)
	s.Record(ms(10), 3)
	s.Record(ms(20), 2)
	got := s.Integral(0, ms(30))
	want := 1*float64(ms(10)) + 3*float64(ms(10)) + 2*float64(ms(10))
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("Integral = %v, want %v", got, want)
	}
	if p := s.Peak(0, ms(30)); p != 3 {
		t.Errorf("Peak = %v, want 3", p)
	}
	if p := s.Peak(ms(21), ms(30)); p != 2 {
		t.Errorf("Peak in tail = %v, want 2", p)
	}
	if p := s.Peak(ms(5), ms(5)); p != 0 {
		t.Errorf("Peak of empty window = %v, want 0", p)
	}
}

func TestDownsample(t *testing.T) {
	s := NewStepSeries()
	s.Record(0, 1)
	s.Record(ms(50), 2)
	times, values := s.Downsample(0, ms(100), 5)
	if len(times) != 5 || len(values) != 5 {
		t.Fatalf("Downsample returned %d/%d points", len(times), len(values))
	}
	if values[0] != 1 || values[4] != 2 {
		t.Errorf("endpoint values = %v", values)
	}
	if times[1]-times[0] != ms(25) {
		t.Errorf("spacing = %v", times[1]-times[0])
	}
	if ts, vs := s.Downsample(0, ms(100), 0); ts != nil || vs != nil {
		t.Error("n=0 must return nil")
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewStepSeries()
	s.Record(0, 10)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf, "bytes", 0, ms(10), 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "time_us,bytes" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,10" {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Add(ms(10), 100)
	c.Add(ms(20), -40)
	if c.Total() != 60 {
		t.Fatalf("Total = %v", c.Total())
	}
	if got := c.Series().At(ms(15)); got != 100 {
		t.Errorf("Series.At(15ms) = %v", got)
	}
	if got := c.Series().At(ms(25)); got != 60 {
		t.Errorf("Series.At(25ms) = %v", got)
	}
	if got := c.Series().At(0); got != 0 {
		t.Errorf("Series.At(0) = %v, want initial 0", got)
	}
}

// Property: the time-weighted mean of any step series lies within
// [min, max] of the values present in the window (including the implicit
// leading zero), and Integral == mean × window.
func TestStepSeriesQuickMeanBounds(t *testing.T) {
	f := func(deltas []uint8, values []int8) bool {
		s := NewStepSeries()
		var t0 time.Duration
		n := len(deltas)
		if len(values) < n {
			n = len(values)
		}
		for i := 0; i < n; i++ {
			t0 += time.Duration(deltas[i]+1) * time.Millisecond
			s.Record(t0, float64(values[i]))
		}
		end := t0 + ms(10)
		mean, _ := s.TimeWeighted(0, end)
		lo, hi := 0.0, 0.0 // implicit leading zero
		for i := 0; i < n; i++ {
			v := float64(values[i])
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if mean < lo-1e-9 || mean > hi+1e-9 {
			return false
		}
		return almostEqual(s.Integral(0, end), mean*float64(end), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStepSummaryMatchesParts checks that Summary's figures are bit for
// bit those of TimeWeighted, Peak and Integral, over random footprint
// series (integer levels, shared instants, a Grow'n series) and windows
// that start before, inside and after the points, empty ones included.
func TestStepSummaryMatchesParts(t *testing.T) {
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		s := NewStepSeries()
		s.Grow(rng.Intn(50))
		s.Record(0, 0)
		var at time.Duration
		var level int64
		for i := rng.Intn(60); i > 0; i-- {
			at += time.Duration(rng.Intn(3)) * time.Millisecond
			level += int64(rng.Intn(2001) - 1000)
			s.Record(at, float64(level))
		}
		from := time.Duration(rng.Intn(200)-20) * time.Millisecond / 2
		to := from + time.Duration(rng.Intn(200)-10)*time.Millisecond/2
		m := s.Summary(from, to)
		mean, std := s.TimeWeighted(from, to)
		if bits(m.Mean) != bits(mean) || bits(m.Std) != bits(std) ||
			bits(m.Peak) != bits(s.Peak(from, to)) || bits(m.Integral) != bits(s.Integral(from, to)) {
			t.Fatalf("trial %d [%v, %v]: Summary %+v; TimeWeighted %v %v, Peak %v, Integral %v",
				trial, from, to, m, mean, std, s.Peak(from, to), s.Integral(from, to))
		}
	}
}
