package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestJitterUniformOutputIsZero(t *testing.T) {
	outs := []time.Duration{ms(0), ms(100), ms(200), ms(300)}
	if got := Jitter(outs); got != 0 {
		t.Fatalf("uniform output must have zero jitter, got %v", got)
	}
}

func TestJitterKnown(t *testing.T) {
	// Gaps: 100, 300 → mean 200, population std 100.
	outs := []time.Duration{ms(0), ms(100), ms(400)}
	if got := Jitter(outs); got != ms(100) {
		t.Fatalf("Jitter = %v, want 100ms", got)
	}
}

func TestJitterTooFewOutputs(t *testing.T) {
	if Jitter(nil) != 0 || Jitter([]time.Duration{ms(1)}) != 0 || Jitter([]time.Duration{ms(1), ms(5)}) != 0 {
		t.Fatal("fewer than 3 outputs must yield zero jitter")
	}
}

func TestGaps(t *testing.T) {
	outs := []time.Duration{ms(10), ms(30), ms(35)}
	gaps := Gaps(outs)
	if len(gaps) != 2 || gaps[0] != ms(20) || gaps[1] != ms(5) {
		t.Fatalf("Gaps = %v", gaps)
	}
	if Gaps([]time.Duration{ms(1)}) != nil {
		t.Fatal("single output has no gaps")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(50, 10*time.Second); got != 5 {
		t.Fatalf("Throughput = %v, want 5", got)
	}
	if Throughput(10, 0) != 0 || Throughput(10, -time.Second) != 0 {
		t.Fatal("non-positive window must yield 0")
	}
}

func TestQuantile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(samples, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated Quantile = %v, want 1.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty Quantile must be NaN")
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile must not mutate its input")
	}
}

func TestDurationStats(t *testing.T) {
	mean, std := DurationStats([]time.Duration{ms(100), ms(300)})
	if mean != ms(200) {
		t.Errorf("mean = %v", mean)
	}
	if std != ms(100) {
		t.Errorf("std = %v", std)
	}
	mean, std = DurationStats(nil)
	if mean != 0 || std != 0 {
		t.Error("empty DurationStats must yield zeros")
	}
}

// TestQuantilesMatchQuantile checks that Quantiles, and Quantile
// through it, give each quantile bit for bit as a sort per quantile
// does, clamped and empty inputs included, and leave the input alone.
func TestQuantilesMatchQuantile(t *testing.T) {
	// The per-quantile form Quantiles replaced.
	reference := func(samples []float64, q float64) float64 {
		if len(samples) == 0 {
			return math.NaN()
		}
		q = min(max(q, 0), 1)
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		pos := q * float64(len(s)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		if lo == hi {
			return s[lo]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	rng := rand.New(rand.NewSource(7))
	qs := []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.95, 0.99, 0.999, 1, 1.5}
	for _, n := range []int{0, 1, 2, 3, 10, 101, 1000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = math.Floor(rng.ExpFloat64() * 1e9)
		}
		orig := append([]float64(nil), samples...)
		got := Quantiles(samples, qs...)
		if len(got) != len(qs) {
			t.Fatalf("n=%d: %d results for %d quantiles", n, len(got), len(qs))
		}
		for i, q := range qs {
			want := reference(samples, q)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("n=%d q=%v: Quantiles %v, want %v", n, q, got[i], want)
			}
			if one := Quantile(samples, q); math.Float64bits(one) != math.Float64bits(want) {
				t.Errorf("n=%d q=%v: Quantile %v, want %v", n, q, one, want)
			}
		}
		for i := range samples {
			if samples[i] != orig[i] {
				t.Fatalf("n=%d: Quantiles reordered its input", n)
			}
		}
	}
}
