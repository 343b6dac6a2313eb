// Package clock abstracts time for the runtime so that experiments can run
// the paper's workload at scaled-down wall-clock cost and unit tests can
// drive time by hand.
//
// All runtime timing is expressed as a time.Duration offset from the
// clock's epoch ("runtime time"). A ScaledClock lets an application declare
// paper-scale durations (a 250 ms tracker stage) while the process sleeps a
// fraction of that, so recorded metrics remain in paper units.
//
// Virtual is a discrete-event clock that runs its participants one at a
// time: those started with Go are coroutines that hand the turn over by a
// direct switch, those registered with Add are goroutines woken through a
// Ticket's channel. Park and Ready block and wake on a Ticket under any
// clock. virtual.go carries a go1.23 build tag, because iter.Pull needs
// that language version and go.mod stays at go 1.22.
package clock

import (
	"sync"
	"time"
)

// Clock supplies runtime time and sleeping. Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now returns the runtime time elapsed since the clock's epoch.
	Now() time.Duration
	// Sleep blocks the caller for d of runtime time. Non-positive
	// durations return immediately.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the process monotonic clock.
type Real struct {
	epoch time.Time
}

// NewReal returns a real clock whose epoch is the moment of the call.
func NewReal() *Real { return &Real{epoch: time.Now()} }

// Now implements Clock.
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// Sleep implements Clock.
func (r *Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Scaled is a Clock that runs faster (Scale > 1) or slower (Scale < 1)
// than its base clock. Durations observed through Now and requested via
// Sleep are in *virtual* units: Sleep(d) blocks the caller for d/Scale of
// base time, and Now reports base elapsed time multiplied by Scale.
type Scaled struct {
	base  Clock
	scale float64
}

// NewScaled wraps base so virtual time advances scale times faster than
// base time. scale must be positive; NewScaled panics otherwise since a
// non-positive scale would freeze or reverse time.
func NewScaled(base Clock, scale float64) *Scaled {
	if scale <= 0 {
		panic("clock: scale must be positive")
	}
	return &Scaled{base: base, scale: scale}
}

// Now implements Clock.
func (s *Scaled) Now() time.Duration {
	return time.Duration(float64(s.base.Now()) * s.scale)
}

// Sleep implements Clock.
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.base.Sleep(time.Duration(float64(d) / s.scale))
}

// SleepOr sleeps d of c's time unless done closes first, and reports
// whether done is closed. On a Real clock, and on a Scaled clock over a
// Real base (for d/scale of real time), the sleep is a timer that done
// interrupts. On any other clock time moves only through the clock, so
// SleepOr does a whole c.Sleep(d) and then checks done.
func SleepOr(c Clock, d time.Duration, done <-chan struct{}) (stopped bool) {
	switch cc := c.(type) {
	case *Scaled:
		return SleepOr(cc.base, time.Duration(float64(d)/cc.scale), done)
	case *Real:
		if d > 0 {
			tm := time.NewTimer(d)
			defer tm.Stop()
			select {
			case <-tm.C:
			case <-done:
			}
		}
	default:
		c.Sleep(d)
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Manual is a Clock driven explicitly by tests. Sleepers block until
// Advance moves the current time past their deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Duration
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Duration
	done     chan struct{}
}

// NewManual returns a manual clock starting at time zero.
func NewManual() *Manual { return &Manual{} }

// Now implements Clock.
func (m *Manual) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock. The caller blocks until Advance has moved the
// clock at least d beyond the current time.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	w := &manualWaiter{deadline: m.now + d, done: make(chan struct{})}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	<-w.done
}

// Advance moves the clock forward by d, releasing every sleeper whose
// deadline has been reached. Negative d panics: manual time is monotone.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: cannot advance a Manual clock backwards")
	}
	m.mu.Lock()
	m.now += d
	remaining := m.waiters[:0]
	var released []*manualWaiter
	for _, w := range m.waiters {
		if w.deadline <= m.now {
			released = append(released, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range released {
		close(w.done)
	}
}

// Sleepers returns the number of goroutines currently blocked in Sleep.
// Tests use it to know when workers have quiesced before advancing.
func (m *Manual) Sleepers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Stopwatch measures spans of runtime time on a Clock. The zero value is
// not usable; construct with NewStopwatch.
type Stopwatch struct {
	clk   Clock
	start time.Duration
}

// NewStopwatch returns a stopwatch started at the current clock time.
func NewStopwatch(clk Clock) *Stopwatch {
	return &Stopwatch{clk: clk, start: clk.Now()}
}

// Elapsed returns the time since the stopwatch was started or last Reset.
func (sw *Stopwatch) Elapsed() time.Duration { return sw.clk.Now() - sw.start }

// Reset restarts the stopwatch at the current clock time and returns the
// span that had elapsed.
func (sw *Stopwatch) Reset() time.Duration {
	now := sw.clk.Now()
	e := now - sw.start
	sw.start = now
	return e
}
