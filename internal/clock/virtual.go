package clock

import (
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
type Virtual struct {
	now atomic.Int64 // virtual time; written under mu

	mu       sync.Mutex
	running  int
	runq     []Ticket // FIFO of readied tickets, head at runq[head]
	head     int
	sleepers []vSleeper // min-heap on (deadline, seq)
	seq      uint64
	free     []Ticket // sleep tickets for reuse
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
// another readies it once per park. It is a channel of capacity one, so a
// Ready that lands before the Park is not lost.
type Ticket chan struct{}

// NewTicket returns an unreadied ticket.
func NewTicket() Ticket { return make(Ticket, 1) }

// Registrar is implemented by clocks that schedule their participant
// goroutines.
type Registrar interface {
	// Add adjusts the count of running participants by delta.
	Add(delta int)
	// Go starts f on a new participant goroutine that waits its turn.
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
	<-tk
}

// Ready wakes the goroutine parked, or about to park, on tk.
func Ready(c Clock, tk Ticket) {
	if r, ok := c.(Registrar); ok {
		r.Ready(tk)
		return
	}
	tk <- struct{}{}
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
// except inside Sleep and Park.
func (v *Virtual) Add(delta int) {
	v.mu.Lock()
	v.running += delta
	v.handOffLocked()
	v.mu.Unlock()
}

// Go implements Registrar: f runs on a new goroutine once the turn
// reaches it, and the goroutine leaves the clock when f returns.
func (v *Virtual) Go(f func()) {
	tk := NewTicket()
	v.Ready(tk)
	go func() {
		<-tk
		defer v.Add(-1)
		f()
	}()
}

// Park implements Registrar.
func (v *Virtual) Park(tk Ticket) {
	v.mu.Lock()
	v.running--
	v.handOffLocked()
	v.mu.Unlock()
	<-tk
}

// Ready implements Registrar.
func (v *Virtual) Ready(tk Ticket) {
	v.mu.Lock()
	v.runq = append(v.runq, tk)
	v.handOffLocked()
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
	var tk Ticket
	if n := len(v.free); n > 0 {
		tk, v.free = v.free[n-1], v.free[:n-1]
	} else {
		tk = NewTicket()
	}
	v.push(vSleeper{deadline: v.Now() + d, seq: v.seq, tk: tk})
	v.seq++
	v.running--
	v.handOffLocked()
	v.mu.Unlock()
	<-tk
	v.mu.Lock()
	v.free = append(v.free, tk)
	v.mu.Unlock()
}

// handOffLocked passes the turn on once nobody is running: to the head of
// the run queue, or, when that is empty, to the sleepers due at the
// earliest deadline after time jumps there.
func (v *Virtual) handOffLocked() {
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
	tk <- struct{}{}
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
