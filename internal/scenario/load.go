package scenario

import (
	"math"
	"time"
)

// Grid is the scenario generator's time quantum: compute costs, load
// shape periods, source pacing pads and restart backoffs are whole
// multiples of it. Determinism does not rest on it — the virtual clock
// orders every wake (DESIGN.md §4i) — but round durations keep the
// pinned latencies readable.
const Grid = time.Millisecond

// QuantizeUp rounds d up to the next Grid multiple (minimum one Grid).
func QuantizeUp(d time.Duration) time.Duration {
	if d <= Grid {
		return Grid
	}
	return ((d + Grid - 1) / Grid) * Grid
}

// Shape is a deterministic load profile: a period multiplier over the
// run's normalized progress. The source's offered inter-item period at
// progress f is base·mult(f), quantized onto the Grid. Multipliers
// below 1 mean overload (faster than the base rate), above 1 slack.
type Shape struct {
	Name string
	mult func(frac float64) float64
}

// ShapeNames lists the adversarial load profiles in matrix order.
var ShapeNames = []string{"steady", "sine", "flash", "onoff", "drift"}

// ShapeByName resolves a load shape; ok is false for unknown names.
func ShapeByName(name string) (Shape, bool) {
	switch name {
	case "steady":
		// Constant offered rate: the control-theory baseline.
		return Shape{name, func(float64) float64 { return 1 }}, true
	case "sine":
		// Diurnal sine: offered period swings ±60% over one full cycle,
		// so the run sweeps through overload and slack smoothly.
		return Shape{name, func(f float64) float64 {
			return 1 + 0.6*math.Sin(2*math.Pi*f)
		}}, true
	case "flash":
		// Flash crowd: steady load with a 4x rate spike through the
		// middle 15% of the run — the estimator must absorb the edge
		// without oscillating after it passes.
		return Shape{name, func(f float64) float64 {
			if f >= 0.40 && f < 0.55 {
				return 0.25
			}
			return 1
		}}, true
	case "onoff":
		// Bursty on-off: alternating tenths of the run at 2x rate and
		// quarter rate, a square wave that punishes slow convergence.
		return Shape{name, func(f float64) float64 {
			if int(f*10)%2 == 0 {
				return 0.5
			}
			return 4
		}}, true
	case "drift":
		// Slow drift: the offered period ramps linearly from half the
		// base (overload) to nearly double it, with no step edges at
		// all — trend-following estimators should shine, lag should
		// show up as sustained drops early.
		return Shape{name, func(f float64) float64 {
			return 0.5 + 1.4*f
		}}, true
	}
	return Shape{}, false
}

// Period returns the offered inter-item period at virtual time now in
// a run of the given total length, Grid-quantized so source pacing
// stays on the determinism grid.
func (s Shape) Period(base, now, total time.Duration) time.Duration {
	if total <= 0 {
		return QuantizeUp(base)
	}
	f := float64(now) / float64(total)
	if f < 0 {
		f = 0
	} else if f >= 1 {
		f = math.Nextafter(1, 0)
	}
	return QuantizeUp(time.Duration(float64(base) * s.mult(f)))
}
