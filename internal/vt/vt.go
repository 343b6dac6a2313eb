// Package vt implements virtual time for the Stampede-style streaming
// runtime: timestamps, half-open intervals, and run-length histories of
// the timestamps a channel was ever given.
//
// Every data item produced by an application thread is tagged with a
// Timestamp. Timestamps index the virtual (or wall-clock) time of the
// application and preserve the temporal locality that interactive
// multimedia algorithms rely on (corresponding frames across cameras,
// sliding windows over a stream, and so on).
package vt

import (
	"fmt"
	"math"
)

// Timestamp is a point in the application's virtual time. Values are
// application defined; the digitizer in the tracker application uses the
// frame number. Negative values are valid application timestamps; the
// distinguished values None and Infinity bound the range.
type Timestamp int64

const (
	// None is the timestamp "before all items": no item carries it, and
	// every valid timestamp compares greater than it. A consumer that has
	// consumed nothing yet has guarantee None.
	None Timestamp = math.MinInt64

	// Infinity compares greater than every valid timestamp. A detached
	// consumer has guarantee Infinity: it will never request anything.
	Infinity Timestamp = math.MaxInt64
)

// Valid reports whether t is an ordinary application timestamp, i.e.
// neither None nor Infinity.
func (t Timestamp) Valid() bool { return t != None && t != Infinity }

// Before reports whether t is strictly earlier than u.
func (t Timestamp) Before(u Timestamp) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Timestamp) After(u Timestamp) bool { return t > u }

// Next returns the smallest timestamp strictly greater than t. Next of
// Infinity is Infinity.
func (t Timestamp) Next() Timestamp {
	if t == Infinity {
		return Infinity
	}
	return t + 1
}

// Prev returns the largest timestamp strictly less than t. Prev of None is
// None.
func (t Timestamp) Prev() Timestamp {
	if t == None {
		return None
	}
	return t - 1
}

// String renders the timestamp, using symbolic names for the bounds.
func (t Timestamp) String() string {
	switch t {
	case None:
		return "ts(-inf)"
	case Infinity:
		return "ts(+inf)"
	default:
		return fmt.Sprintf("ts(%d)", int64(t))
	}
}

// Min returns the earlier of a and b.
func Min(a, b Timestamp) Timestamp {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Timestamp) Timestamp {
	if a > b {
		return a
	}
	return b
}

// Interval is the half-open virtual-time interval [Lo, Hi). An interval
// with Hi <= Lo is empty.
type Interval struct {
	Lo, Hi Timestamp
}

// Empty reports whether the interval contains no timestamps.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Contains reports whether t lies within [Lo, Hi).
func (iv Interval) Contains(t Timestamp) bool { return t >= iv.Lo && t < iv.Hi }

// Len returns the number of timestamps in the interval. Intervals touching
// None or Infinity report math.MaxInt64.
func (iv Interval) Len() int64 {
	if iv.Empty() {
		return 0
	}
	if iv.Lo == None || iv.Hi == Infinity {
		return math.MaxInt64
	}
	return int64(iv.Hi - iv.Lo)
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: Max(iv.Lo, other.Lo), Hi: Min(iv.Hi, other.Hi)}
}

// Union returns the smallest interval covering both inputs. Empty inputs
// are ignored; the union of two empty intervals is empty.
func (iv Interval) Union(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Lo: Min(iv.Lo, other.Lo), Hi: Max(iv.Hi, other.Hi)}
}

// String renders the interval in [lo, hi) form.
func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Lo, iv.Hi)
}
