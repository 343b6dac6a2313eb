//go:build go1.23

// The build tag lifts this file's language version to go1.23, which
// iter.Pull needs, while go.mod stays at go 1.22 for the modules that
// compile against this package.

package clock

import (
	"iter"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a discrete-event clock run as a cooperative scheduler:
// registered participants take turns, one at a time, and virtual time
// jumps to the next sleeper's deadline only when nobody holds or awaits
// the turn. Simulated workloads run as fast as the host can execute them,
// with microsecond-exact virtual durations, and the order in which
// participants run is fixed by the clock, not by the Go scheduler, so a
// run repeats exactly on any number of processors.
//
// Protocol:
//
//   - A goroutine that uses the clock must be a participant: started with
//     Go, which queues it for its first turn, or registered with Add(1)
//     while it runs freely and Add(-1) when it exits.
//   - A participant blocks only through the clock: Sleep, or Park on a
//     Ticket that another goroutine Readies. Blocking on anything else
//     keeps the turn and so stalls every participant.
//
// The clock keeps a count of running participants, a FIFO run queue of
// readied tickets and a min-heap of sleepers keyed by (deadline, seq).
// When the running count reaches zero it hands the turn to the head of
// the run queue; when the queue is empty it jumps to the earliest deadline
// and queues every sleeper due then, in heap order.
//
// A participant started with Go runs as a coroutine (iter.Pull) and gives
// up its turn by yielding to a dispatcher loop, which resumes the next
// coroutine directly: no channel send and no goroutine park. One
// registered with Add is woken by a send on its ticket's channel. While a
// coroutine holds the turn it is the only participant running, so Add(1)
// from another goroutine waits for the turn, and a coroutine must not
// call Add.
type Virtual struct {
	now atomic.Int64 // virtual time; written under mu

	mu       sync.Mutex
	running  int
	runq     []Ticket // FIFO of readied tickets, head at runq[head]
	head     int
	sleepers []vSleeper // min-heap on (deadline, seq)
	seq      uint64
	free     []Ticket // channel tickets for reuse

	cur  *coro         // the coroutine holding the turn, nil when none does
	next *coro         // the coroutine the dispatcher resumes next
	wake chan struct{} // the channel waiter the dispatcher sends the turn to
}

type vSleeper struct {
	deadline time.Duration
	seq      uint64
	tk       Ticket
}

func (a vSleeper) before(b vSleeper) bool {
	return a.deadline < b.deadline || a.deadline == b.deadline && a.seq < b.seq
}

// Ticket is a reusable wake-up token: one goroutine parks on it and
// another readies it once per park. A Ready that lands before the Park is
// not lost.
type Ticket = *ticket

type ticket struct {
	ch chan struct{} // capacity one: the turn for a goroutine parked outside a coroutine
	co *coro         // the coroutine waiting on the ticket, set by Park or Sleep, cleared by the wake
}

// coro is a participant started with Go: resume runs it until it yields
// its turn or returns.
type coro struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	self   ticket // the ticket it sleeps on
}

// NewTicket returns an unreadied ticket.
func NewTicket() Ticket { return &ticket{ch: make(chan struct{}, 1)} }

// Registrar is implemented by clocks that schedule their participant
// goroutines.
type Registrar interface {
	// Add adjusts the count of running participants by delta.
	Add(delta int)
	// Go starts f as a new participant that waits its turn.
	Go(f func())
	// Park gives up the caller's turn until tk is readied.
	Park(tk Ticket)
	// Ready queues the goroutine parked on tk for its next turn.
	Ready(tk Ticket)
}

// Park blocks the caller until tk is readied, yielding its turn when c
// schedules its participants.
func Park(c Clock, tk Ticket) {
	if r, ok := c.(Registrar); ok {
		r.Park(tk)
		return
	}
	<-tk.ch
}

// Ready wakes the goroutine parked, or about to park, on tk.
func Ready(c Clock, tk Ticket) {
	if r, ok := c.(Registrar); ok {
		r.Ready(tk)
		return
	}
	tk.ch <- struct{}{}
}

var (
	_ Clock     = (*Virtual)(nil)
	_ Registrar = (*Virtual)(nil)
)

// NewVirtual returns a virtual clock at time zero with no participants.
func NewVirtual() *Virtual { return &Virtual{} }

// Now implements Clock.
func (v *Virtual) Now() time.Duration { return time.Duration(v.now.Load()) }

// Add implements Registrar. A free-running participant registers with
// Add(1) and leaves with Add(-1); while registered it counts as running
// except inside Sleep and Park. Registering while a coroutine holds the
// turn waits for the turn.
func (v *Virtual) Add(delta int) {
	v.mu.Lock()
	if delta > 0 && v.cur != nil {
		tk := v.ticketLocked()
		v.runq = append(v.runq, tk)
		v.waitLocked(tk)
		delta-- // the turn counts the caller as running
	}
	v.running += delta
	v.handOffLocked(false)
	v.mu.Unlock()
}

// Go implements Registrar: f runs as a coroutine once the turn reaches
// it, and leaves the clock when f returns.
func (v *Virtual) Go(f func()) {
	co := &coro{}
	co.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		f()
	})
	co.self.co = co
	v.Ready(&co.self)
}

// Park implements Registrar.
func (v *Virtual) Park(tk Ticket) {
	v.mu.Lock()
	if co := v.cur; co != nil {
		tk.co = co
		v.yieldLocked(co)
		return
	}
	v.running--
	v.handOffLocked(false)
	v.mu.Unlock()
	<-tk.ch
}

// Ready implements Registrar.
func (v *Virtual) Ready(tk Ticket) {
	v.mu.Lock()
	v.runq = append(v.runq, tk)
	v.handOffLocked(false)
	v.mu.Unlock()
}

// Sleep implements Clock: the calling participant gives up its turn until
// virtual time reaches now+d. Sleepers sharing a deadline run in the
// order they went to sleep.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	if co := v.cur; co != nil {
		co.self.co = co
		v.push(vSleeper{deadline: v.Now() + d, seq: v.seq, tk: &co.self})
		v.seq++
		v.yieldLocked(co)
		return
	}
	tk := v.ticketLocked()
	v.push(vSleeper{deadline: v.Now() + d, seq: v.seq, tk: tk})
	v.seq++
	v.running--
	v.handOffLocked(false)
	v.waitLocked(tk)
	v.mu.Unlock()
}

// ticketLocked returns a channel ticket from the free list or a new one.
func (v *Virtual) ticketLocked() Ticket {
	if n := len(v.free); n > 0 {
		tk := v.free[n-1]
		v.free = v.free[:n-1]
		return tk
	}
	return NewTicket()
}

// waitLocked blocks a goroutine outside the coroutines, mu released,
// until the turn arrives on tk, then frees tk.
func (v *Virtual) waitLocked(tk Ticket) {
	v.mu.Unlock()
	<-tk.ch
	v.mu.Lock()
	v.free = append(v.free, tk)
}

// yieldLocked gives up the turn held by coroutine co and returns, mu
// released, once co holds it again.
func (v *Virtual) yieldLocked(co *coro) {
	v.running--
	v.cur = nil
	v.handOffLocked(true)
	if v.cur == co { // the turn came straight back
		v.next = nil
		v.mu.Unlock()
		return
	}
	v.mu.Unlock()
	co.yield(struct{}{})
}

// dispatch resumes coroutines on the calling goroutine for as long as the
// turn passes from one coroutine to the next, starting with co.
func (v *Virtual) dispatch(co *coro) {
	for co != nil {
		_, alive := co.resume()
		v.mu.Lock()
		if !alive {
			v.cur = nil
			v.running--
			v.handOffLocked(true)
		}
		co, v.next = v.next, nil
		wake := v.wake
		v.wake = nil
		v.mu.Unlock()
		if wake != nil {
			wake <- struct{}{}
		}
	}
}

// handOffLocked passes the turn on once nobody is running: to the head of
// the run queue, or, when that is empty, to the sleepers due at the
// earliest deadline after time jumps there. fromCoro reports that the
// caller runs under a dispatcher, as a yielding coroutine or the
// dispatcher itself; the dispatcher then delivers the turn once the
// coroutine has yielded. Otherwise a turn for a coroutine starts a
// dispatcher, and a turn for a channel waiter is sent at once.
func (v *Virtual) handOffLocked(fromCoro bool) {
	if v.running != 0 {
		return
	}
	if v.head == len(v.runq) {
		if len(v.sleepers) == 0 {
			return
		}
		next := v.sleepers[0].deadline
		v.now.Store(int64(next))
		for len(v.sleepers) > 0 && v.sleepers[0].deadline == next {
			v.runq = append(v.runq, v.pop().tk)
		}
	}
	tk := v.runq[v.head]
	v.runq[v.head] = nil
	if v.head++; v.head == len(v.runq) {
		v.runq, v.head = v.runq[:0], 0
	}
	v.running = 1
	switch co := tk.co; {
	case co != nil:
		tk.co = nil
		v.cur = co
		if fromCoro {
			v.next = co
		} else {
			go v.dispatch(co)
		}
	case fromCoro:
		v.wake = tk.ch
	default:
		tk.ch <- struct{}{}
	}
}

// push and pop maintain the sleeper heap.
func (v *Virtual) push(s vSleeper) {
	h := append(v.sleepers, s)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	v.sleepers = h
}

func (v *Virtual) pop() vSleeper {
	h := v.sleepers
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = vSleeper{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	v.sleepers = h
	return top
}
