// Package ring implements a bounded lock-free FIFO buffer backend for
// the throughput regime the ROADMAP's "millions of users" north star
// asks for: hot-path puts and gets are a handful of atomic operations —
// no mutex, no allocation — with a parking slow path entered only when
// the ring is actually empty (consumer) or full (producers).
//
// The design is the classic bounded MPMC ring specialized to this
// repo's shapes: a power-of-two slot array where each slot carries a
// sequence number that encodes its state. Slot i is free for position
// pos (seq == pos), published (seq == pos+1), or still draining from a
// previous lap (seq < pos). Producers claim positions on a padded tail
// cursor — a plain store in SPSC mode, a CAS loop in MPSC mode — write
// the item value, and release the slot by storing seq = pos+1; the
// single consumer reads head, waits for seq == pos+1, copies the item
// out, and recycles the slot with seq = pos+ringSize. Sequence numbers
// are the only cross-thread handshake, so producers never read head and
// the consumer never reads tail: each cursor stays in its owner's cache
// line (both are padded against false sharing).
//
// Items are stored by value. The *Item a producer hands to Put is
// copied into the slot and recycled into the configured pool
// immediately, so a pooled put allocates nothing even while the ring
// holds a backlog — the property behind the put=0 allocation pin.
//
// Blocking is spin-then-park: a bounded Gosched spin absorbs the
// microsecond-scale waits of a busy pipeline, then the waiter registers
// itself in an atomic sleeper count and parks on a buffer.WaitQueue,
// through the clock like every other in-process backend. Publishers
// check the sleeper count (one atomic load when nobody sleeps) after
// releasing a slot; the sequentially consistent store/load ordering of
// Go atomics makes the classic sleeper handshake race-free. On a clock
// that schedules its participants (clock.Registrar) the spin is skipped:
// the spinner would hold the turn its peer needs to make progress.
//
// Ring is registered as "ring": FIFO discipline, TryGet, single
// consumer, one or many producers (the mode is frozen by the number of
// producer attachments, which per the Buffer contract all happen before
// the first Put).
package ring

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/vt"
)

func init() {
	buffer.Register("ring", buffer.Backend{
		New:  func(cfg buffer.Config) (buffer.Buffer, error) { return New(cfg) },
		Caps: caps,
	})
}

var caps = buffer.Caps{
	Discipline: buffer.FIFO,
}

// spins bounds the Gosched spin phase before a waiter parks on the slow
// path.
const spins = 64

// noConn is the "no consumer attached" sentinel (graph connection ids
// are non-negative).
const noConn = int64(-1)

// slot is one ring cell: the sequence number is the slot's state (see
// the package comment) and the item is stored by value.
type slot struct {
	seq atomic.Uint64
	it  buffer.Item
}

// pad keeps the hot cursors on their own cache lines.
type pad [64]byte

// Ring is a bounded lock-free FIFO buffer (single consumer, SPSC or
// MPSC producers). All methods are safe for concurrent use within that
// attachment shape.
type Ring struct {
	cfg   buffer.Config
	slots []slot
	mask  uint64

	_    pad
	head atomic.Uint64 // consumer cursor: next position to pop
	_    pad
	tail atomic.Uint64 // producer cursor: next position to claim
	_    pad

	mpsc      atomic.Bool // ≥2 producers attached: claim via CAS
	closed    atomic.Bool
	sealed    atomic.Bool // drain mode: puts rejected, gets serve the backlog
	prodsDead atomic.Bool // every producer failed permanently
	consDead  atomic.Bool // every consumer failed permanently

	puts      atomic.Int64
	frees     atomic.Int64
	liveBytes atomic.Int64
	drainedN  atomic.Int64 // items delivered to the consumer after Seal
	shedN     atomic.Int64 // items discarded undelivered by Drain

	// sleepCons/sleepProd count waiters parked on the slow path; a
	// publisher that loads zero skips the mutex entirely.
	sleepCons atomic.Int32
	sleepProd atomic.Int32

	// putBlockedNs / putBlockedN accumulate the producers' parked time
	// and parked puts: the elastic scheduler's backlog-pressure sensor.
	putBlockedNs atomic.Int64
	putBlockedN  atomic.Int64

	// mu guards attachment mutations and the two wait queues. The hot
	// paths read the attachment state lock-free: producers is a
	// copy-on-write set behind an atomic pointer, consumer an atomic
	// conn id (negative: none attached) — so checkProducer/checkConsumer
	// never race with FailProducer/FailConsumer rewriting the tables.
	mu         sync.Mutex
	notEmpty   buffer.WaitQueue // the consumer, parked for a published slot
	notFull    buffer.WaitQueue // producers, parked for a free slot
	producers  atomic.Pointer[map[graph.ConnID]bool]
	consumer   atomic.Int64 // graph.ConnID, or noConn
	prodFailed int
	consFailed int

	// spin is the Gosched spin budget before a waiter parks: spins on a
	// free-running clock, none on one that schedules its participants.
	spin int

	buffer.Instruments
}

// New creates a ring. Capacity must be positive and is rounded up to
// the next power of two (the mask trick needs it; the documented
// capacity of a ring buffer is its slot count).
func New(cfg buffer.Config) (*Ring, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("ring: %q requires a positive capacity (got %d): a lock-free ring is bounded by construction", cfg.Name, cfg.Capacity)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	size := 1
	for size < cfg.Capacity {
		size <<= 1
	}
	r := &Ring{
		cfg:         cfg,
		slots:       make([]slot, size),
		mask:        uint64(size - 1),
		spin:        spinBudget(cfg.Clock),
		Instruments: buffer.NewInstruments(cfg),
	}
	empty := map[graph.ConnID]bool{}
	r.producers.Store(&empty)
	r.consumer.Store(noConn)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r, nil
}

// spinBudget returns the spin phase's length on c: none when c
// schedules its participants, because a spinning waiter keeps the turn
// and nothing it waits for can happen until it parks.
func spinBudget(c clock.Clock) int {
	if _, ok := c.(clock.Registrar); ok {
		return 0
	}
	return spins
}

// Capacity returns the ring's slot count (the declared capacity rounded
// up to a power of two).
func (r *Ring) Capacity() int { return len(r.slots) }

// AttachProducer registers a producer connection. The second distinct
// producer flips the ring into MPSC mode (CAS-claimed tail); per the
// Buffer contract every attach happens before the first Put, so the
// mode is frozen by the time the hot path reads it.
func (r *Ring) AttachProducer(conn graph.ConnID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.producers.Load()
	next := make(map[graph.ConnID]bool, len(old)+1)
	for c := range old {
		next[c] = true
	}
	next[conn] = true
	r.producers.Store(&next)
	if len(next) > 1 {
		r.mpsc.Store(true)
	}
	return nil
}

// AttachConsumer registers the single consumer connection. The ring's
// lock-free pop owns the head cursor exclusively, so a second distinct
// consumer — and any sliding window — is rejected with ErrUnsupported.
func (r *Ring) AttachConsumer(conn graph.ConnID, window int) error {
	if window != 1 {
		return fmt.Errorf("%w: window width %d on ring %q", buffer.ErrUnsupported, window, r.cfg.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.consumer.Load(); cur != noConn && cur != int64(conn) {
		return fmt.Errorf("%w: second consumer on ring %q (the ring's pop path is single-consumer)", buffer.ErrUnsupported, r.cfg.Name)
	}
	r.consumer.Store(int64(conn))
	return nil
}

// DetachConsumer removes the consumer connection.
func (r *Ring) DetachConsumer(conn graph.ConnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consumer.CompareAndSwap(int64(conn), noConn)
}

// FailProducer removes a producer attachment that failed permanently.
// Once every producer has failed the consumer drains the remaining
// items and then observes ErrPeerFailed instead of blocking forever.
func (r *Ring) FailProducer(conn graph.ConnID) {
	r.mu.Lock()
	old := *r.producers.Load()
	if old[conn] {
		next := make(map[graph.ConnID]bool, len(old))
		for c := range old {
			if c != conn {
				next[c] = true
			}
		}
		r.producers.Store(&next)
		r.prodFailed++
		if len(next) == 0 {
			r.prodsDead.Store(true)
			r.notEmpty.Wake(r.cfg.Clock, -1)
		}
	}
	r.mu.Unlock()
}

// FailConsumer removes the consumer attachment on permanent failure.
// Producers blocked on capacity then observe ErrPeerFailed: nothing
// will ever be popped again.
func (r *Ring) FailConsumer(conn graph.ConnID) {
	r.mu.Lock()
	if r.consumer.CompareAndSwap(int64(conn), noConn) {
		r.consFailed++
		r.consDead.Store(true)
		r.notFull.Wake(r.cfg.Clock, -1)
	}
	r.mu.Unlock()
}

// checkProducer validates the connection against the copy-on-write
// attachment set — a lock-free read that never races with the
// mutations, which swap in a fresh map under mu.
func (r *Ring) checkProducer(conn graph.ConnID) error {
	if !(*r.producers.Load())[conn] {
		return fmt.Errorf("%w: producer %d on %q", buffer.ErrNotAttached, conn, r.cfg.Name)
	}
	return nil
}

func (r *Ring) checkConsumer(conn graph.ConnID) error {
	if r.consumer.Load() != int64(conn) {
		return fmt.Errorf("%w: consumer %d on %q", buffer.ErrNotAttached, conn, r.cfg.Name)
	}
	return nil
}

// accountPut records n inserted items totalling bytes.
func (r *Ring) accountPut(n int, bytes int64) {
	r.puts.Add(int64(n))
	live := r.liveBytes.Add(bytes)
	if r.MPuts != nil {
		r.MPuts.Add(int64(n))
		r.MItemsHW.Max(int64(r.tail.Load() - r.head.Load()))
		r.MBytesHW.Max(live)
	}
}

// wake readies every waiter parked on q, if any: one atomic load of its
// sleeper count on the common (nobody-sleeping) path.
func (r *Ring) wake(q *buffer.WaitQueue, sleepers *atomic.Int32) {
	if sleepers.Load() > 0 {
		r.mu.Lock()
		q.Wake(r.cfg.Clock, -1)
		r.mu.Unlock()
	}
}

// await spins, then parks on q, until cond holds. It returns the time
// spent parked: zero, with no clock read, when the spin sufficed.
func (r *Ring) await(q *buffer.WaitQueue, sleepers *atomic.Int32, cond func() bool) time.Duration {
	for i := 0; i < r.spin; i++ {
		if cond() {
			return 0
		}
		runtime.Gosched()
	}
	start := r.cfg.Clock.Now()
	r.mu.Lock()
	sleepers.Add(1)
	for !cond() {
		q.Wait(r.cfg.Clock, &r.mu)
	}
	sleepers.Add(-1)
	r.mu.Unlock()
	return r.cfg.Clock.Now() - start
}

// parkProducer waits until the slot generation for position pos is free
// (seq reaches pos). It returns the time spent parked, adding it to the
// PutBlocked ledger, and ErrPeerFailed when every consumer has failed —
// with a dead audience no slot will ever free again.
//
// The wake condition is seq >= pos, not equality: in MPSC mode pos can
// go stale while this producer parks (another producer claims the freed
// slot and republishes it, moving seq past pos). Equality would then
// never hold again and the waiter would sleep forever; >= hands control
// back to the caller, which reloads the tail and retries.
func (r *Ring) parkProducer(pos uint64) (time.Duration, error) {
	s := &r.slots[pos&r.mask]
	d := r.await(&r.notFull, &r.sleepProd, func() bool {
		return int64(s.seq.Load())-int64(pos) >= 0 || r.closed.Load() || r.sealed.Load() || r.consDead.Load()
	})
	if d > 0 {
		r.putBlockedNs.Add(int64(d))
		r.putBlockedN.Add(1)
		r.MPutBlocked.Observe(d)
	}
	if r.consDead.Load() {
		return d, fmt.Errorf("%w: all consumers of %q failed while producer blocked on capacity", buffer.ErrPeerFailed, r.cfg.Name)
	}
	return d, nil
}

// parkConsumer waits until the slot at the head position is published,
// the ring closes, or every producer fails; it returns time spent
// parked.
// Like parkProducer, the wake condition is seq >= pos+1 rather than
// equality: a concurrent Drain can pop the slot this consumer parked
// on (recycling it a full lap ahead), after which equality would never
// hold; >= returns to the caller, which reloads the head and retries.
func (r *Ring) parkConsumer() time.Duration {
	pos := r.head.Load()
	s := &r.slots[pos&r.mask]
	return r.await(&r.notEmpty, &r.sleepCons, func() bool {
		return int64(s.seq.Load())-int64(pos+1) >= 0 || r.closed.Load() || r.sealed.Load() || r.prodsDead.Load()
	})
}

// insert writes an item into the slot claimed at pos and publishes it.
// The item value is copied, so the pointer goes straight back to the
// pool — the ring never retains caller memory.
func (r *Ring) insert(pos uint64, it *buffer.Item) {
	s := &r.slots[pos&r.mask]
	s.it = *it
	s.seq.Store(pos + 1)
	size := it.Size
	r.cfg.Pool.Recycle(it)
	r.accountPut(1, size)
	r.wake(&r.notEmpty, &r.sleepCons)
}

// Put inserts an item, blocking while the ring is full: a PutBatch of
// one.
func (r *Ring) Put(conn graph.ConnID, it *buffer.Item) (time.Duration, error) {
	_, blocked, err := r.PutBatch(conn, []*buffer.Item{it})
	return blocked, err
}

// errSealed builds the typed drain rejection for puts into a sealed ring.
func (r *Ring) errSealed() error {
	return fmt.Errorf("%w: put into sealed %q", buffer.ErrDraining, r.cfg.Name)
}

// putMPSC inserts one item through a CAS-claimed tail for concurrent
// producers.
func (r *Ring) putMPSC(it *buffer.Item) (time.Duration, error) {
	var blocked time.Duration
	for {
		if r.closed.Load() {
			return blocked, buffer.ErrClosed
		}
		if r.sealed.Load() {
			return blocked, r.errSealed()
		}
		pos := r.tail.Load()
		seq := r.slots[pos&r.mask].seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				r.insert(pos, it)
				return blocked, nil
			}
		case diff < 0:
			// The slot is still draining a previous lap: the ring is
			// full at pos.
			d, err := r.parkProducer(pos)
			blocked += d
			if err != nil {
				return blocked, err
			}
		default:
			// Another producer claimed pos between our loads; retry.
			runtime.Gosched()
		}
	}
}

// PutBatch inserts items in order, blocking while the ring is full. In
// SPSC mode the single producer owns the tail, so runs of free slots are
// written with one tail store and one accounting round per run; MPSC
// mode degrades to per-item CAS claims (contended producers cannot
// reserve runs without risking a capacity deadlock).
func (r *Ring) PutBatch(conn graph.ConnID, items []*buffer.Item) (int, time.Duration, error) {
	if err := r.checkProducer(conn); err != nil {
		return 0, 0, err
	}
	var blocked time.Duration
	if r.mpsc.Load() {
		for i, it := range items {
			d, err := r.putMPSC(it)
			blocked += d
			if err != nil {
				return i, blocked, err
			}
		}
		return len(items), blocked, nil
	}
	applied := 0
	for applied < len(items) {
		if r.closed.Load() {
			return applied, blocked, buffer.ErrClosed
		}
		if r.sealed.Load() {
			return applied, blocked, r.errSealed()
		}
		pos := r.tail.Load()
		// Count the run of free slots from pos, bounded by the batch.
		k := 0
		for applied+k < len(items) && k < len(r.slots) {
			if r.slots[(pos+uint64(k))&r.mask].seq.Load() != pos+uint64(k) {
				break
			}
			k++
		}
		if k == 0 {
			d, err := r.parkProducer(pos)
			blocked += d
			if err != nil {
				return applied, blocked, err
			}
			continue
		}
		// Claim the run before publishing it, so the occupancy count
		// (tail-head) never runs behind a pop of a published slot.
		r.tail.Store(pos + uint64(k))
		var bytes int64
		for j := 0; j < k; j++ {
			it := items[applied+j]
			s := &r.slots[(pos+uint64(j))&r.mask]
			s.it = *it
			bytes += it.Size
			s.seq.Store(pos + uint64(j) + 1)
		}
		// The pointers stay ours even after the seq stores publish the
		// slots (consumers see only the copied values), so the whole run
		// recycles in one pool round.
		r.cfg.Pool.RecycleN(items[applied : applied+k])
		r.accountPut(k, bytes)
		r.wake(&r.notEmpty, &r.sleepCons)
		applied += k
	}
	return applied, blocked, nil
}

// popN pops up to len(dst) published items, amortizing the head claim,
// the accounting and the producer wakeup over the batch. The head cursor
// is claimed with CAS rather than a plain store: the pop path is
// nominally single-consumer, but shutdown's Drain runs it concurrently
// with a consumer thread that has not yet observed the stop signal, and
// the CAS makes that overlap safe (an uncontended CAS costs the same
// cache-line ownership the store would).
func (r *Ring) popN(dst []buffer.GetResult) int {
	for {
		pos := r.head.Load()
		n := 0
		for n < len(dst) {
			if r.slots[(pos+uint64(n))&r.mask].seq.Load() != pos+uint64(n)+1 {
				break
			}
			n++
		}
		if n == 0 {
			return 0
		}
		if !r.head.CompareAndSwap(pos, pos+uint64(n)) {
			continue // lost the claim to a concurrent drainer; retry
		}
		// The CAS made [pos, pos+n) exclusively ours. OnFree observes each
		// item in place, before its slot is wiped and released: passing
		// &dst[i].Item instead would make dst escape, costing the
		// single-item callers' one-element array an allocation per pop.
		var bytes int64
		for i := 0; i < n; i++ {
			s := &r.slots[(pos+uint64(i))&r.mask]
			dst[i] = buffer.GetResult{Item: s.it}
			bytes += s.it.Size
			if r.cfg.OnFree != nil {
				r.cfg.OnFree(&s.it)
			}
			s.it = buffer.Item{}
			s.seq.Store(pos + uint64(i) + uint64(len(r.slots)))
		}
		r.frees.Add(int64(n))
		r.liveBytes.Add(-bytes)
		r.MFrees.Add(int64(n))
		r.wake(&r.notFull, &r.sleepProd)
		return n
	}
}

// Get pops the oldest item, blocking until one is available: a GetBatch
// of one.
func (r *Ring) Get(conn graph.ConnID) (buffer.GetResult, error) {
	var one [1]buffer.GetResult
	_, err := r.pop(conn, one[:], true)
	return one[0], err
}

// TryGet is the non-blocking Get: ok is false when the ring is empty.
func (r *Ring) TryGet(conn graph.ConnID) (res buffer.GetResult, ok bool, err error) {
	var one [1]buffer.GetResult
	n, err := r.pop(conn, one[:], false)
	return one[0], n == 1, err
}

// GetBatch pops up to len(dst) items in FIFO order, blocking only until
// the first is available.
func (r *Ring) GetBatch(conn graph.ConnID, dst []buffer.GetResult) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	return r.pop(conn, dst, true)
}

// pop pops up to len(dst) ≥ 1 items in FIFO order. With block set it
// waits for the first item and dst[0].Blocked carries the wait (also on
// error); without it an empty ring returns (0, nil). A closed or sealed
// ring drains remaining items before reporting ErrClosed (queue parity);
// once every producer has failed the same drain-then-error shape applies
// with ErrPeerFailed.
func (r *Ring) pop(conn graph.ConnID, dst []buffer.GetResult, block bool) (int, error) {
	if err := r.checkConsumer(conn); err != nil {
		return 0, err
	}
	var blocked time.Duration
	for {
		// The terminal flags are read before popping, so an empty pop
		// after a flag was observed has already seen every item
		// published before it: the backlog always drains first.
		var err error
		switch {
		case r.closed.Load() || r.sealed.Load():
			err = buffer.ErrClosed
		case r.prodsDead.Load():
			err = fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, r.cfg.Name)
		}
		if n := r.popN(dst); n > 0 {
			r.noteDelivered(n)
			dst[0].Blocked = blocked
			return n, nil
		}
		if err != nil {
			dst[0] = buffer.GetResult{Blocked: blocked}
			return 0, err
		}
		if !block {
			return 0, nil
		}
		blocked += r.parkConsumer()
	}
}

// noteDelivered records n items delivered to the consumer while sealed —
// the "drained" side of the conservation ledger. A no-op before Seal.
func (r *Ring) noteDelivered(n int) {
	if r.sealed.Load() && n > 0 {
		r.drainedN.Add(int64(n))
		r.MDrained.Add(int64(n))
	}
}

// WouldBeDead reports false in normal operation — ring items are handed
// to the consumer and never skipped — and true once every consumer has
// failed permanently.
func (r *Ring) WouldBeDead(ts vt.Timestamp) bool { return r.consDead.Load() }

// Seal flips the ring into drain mode: puts (including puts parked on
// capacity) reject with ErrDraining, while the consumer keeps popping
// the backlog and then observes ErrClosed. Idempotent.
func (r *Ring) Seal() {
	if r.sealed.Swap(true) {
		return
	}
	r.mu.Lock()
	r.notEmpty.Wake(r.cfg.Clock, -1)
	r.notFull.Wake(r.cfg.Clock, -1)
	r.mu.Unlock()
}

// Drained reports that the ring is sealed and empty: the flush is
// complete.
func (r *Ring) Drained() bool {
	return r.sealed.Load() && r.tail.Load() == r.head.Load()
}

// Close marks the ring closed and wakes every blocked operation; the
// consumer drains remaining items, then sees ErrClosed.
func (r *Ring) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.mu.Lock()
	r.notEmpty.Wake(r.cfg.Clock, -1)
	r.notFull.Wake(r.cfg.Clock, -1)
	r.mu.Unlock()
}

// Drain discards items still buffered after Close, reporting each to
// OnFree and counting it as explicitly shed, and returns how many it
// discarded. It reuses the consumer pop path, whose CAS-claimed head
// makes it safe to run concurrently with a consumer thread that has not
// yet observed the stop signal (the runtime calls Drain from Stop while
// threads may still be unwinding).
func (r *Ring) Drain() int {
	total := 0
	var scratch [64]buffer.GetResult
	for {
		n := r.popN(scratch[:])
		total += n
		if n < len(scratch) {
			break
		}
	}
	if total > 0 {
		r.shedN.Add(int64(total))
		r.MShed.Add(int64(total))
	}
	return total
}

// Stats reads the ring's books. The hot paths keep each counter in its
// own atomic, so Stats loads them one by one: every field is a value the
// counter really held, but the reading promises no cross-field identity
// (Puts - Frees may differ from Items while items are in flight).
func (r *Ring) Stats() buffer.Stats {
	return buffer.Stats{
		Items: int(r.tail.Load() - r.head.Load()), Bytes: r.liveBytes.Load(),
		Puts: r.puts.Load(), Frees: r.frees.Load(),
		HighWaterItems: r.MItemsHW.Value(), HighWaterBytes: r.MBytesHW.Value(),
		PutBlocked:      time.Duration(r.putBlockedNs.Load()),
		PutBlockedCount: r.putBlockedN.Load(),
		Drained:         r.drainedN.Load(), Shed: r.shedN.Load(),
	}
}
