// Package channel implements the Stampede channel abstraction: a
// system-wide named container of timestamped items supporting non-FIFO,
// out-of-order access (§1 of the paper). Channels buffer the production
// differential between pipeline stages; consumers typically request the
// *latest* item, skipping over stale data — the behaviour that creates the
// wasted items ARU exists to prevent.
//
// Each consumer of a channel holds a private connection with a
// monotonically advancing consumption guarantee: after consuming the item
// at timestamp T it will never request an item at or before T again. The
// guarantees feed the garbage collector (package gc), which reclaims items
// no consumer can name anymore.
//
// Channel is a buffer.Buffer backend (registered as "channel"): the
// clock-aware wait queues, attachment maps, capacity blocking, and
// puts/frees/liveBytes accounting all live in the embedded buffer.Base;
// this package adds only the channel discipline — the sorted run of live
// items, the history of timestamps ever put, get-latest/sliding-window
// delivery, and guarantee-driven garbage collection.
package channel

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/graph"
	"repro/internal/vt"
)

// Errors returned by channel operations. They alias the shared buffer
// errors, so errors.Is matches across packages.
var (
	// ErrClosed reports an operation on a closed channel.
	ErrClosed = buffer.ErrClosed
	// ErrDuplicate reports a put of a timestamp already present.
	ErrDuplicate = buffer.ErrDuplicate
	// ErrPassed reports a get of a timestamp the connection's guarantee
	// has already moved past.
	ErrPassed = buffer.ErrPassed
	// ErrGone reports a get of an item the collector freed.
	ErrGone = buffer.ErrGone
	// ErrNotAttached reports use of a connection id that was never
	// attached.
	ErrNotAttached = buffer.ErrNotAttached
)

// Item is one timestamped data element stored in a channel. It is the
// shared buffer item type: all backends store the same struct, so the
// runtime's put/get paths never convert between per-backend items.
type Item = buffer.Item

// Config configures a channel.
type Config = buffer.Config

// GetResult is the outcome of a successful get.
type GetResult = buffer.GetResult

func init() {
	buffer.Register("channel", buffer.Backend{
		New:  func(cfg Config) (buffer.Buffer, error) { return New(cfg), nil },
		Caps: caps,
	})
}

var caps = buffer.Caps{
	Discipline: buffer.Latest,
	Windows:    true,
	GetAt:      true,
}

// Channel is a timestamped buffer. All methods are safe for concurrent
// use.
//
// An item's lifecycle is tracked by the (live, history) pair: a timestamp
// in history but not live was freed by the collector, and GetAt reports
// ErrGone rather than "not yet produced". Neither keeps anything per
// freed item: live holds only live items, and history is a handful of
// runs (one for a dense stream).
type Channel struct {
	buffer.Base

	// live and history are guarded by Base.Mu.
	live    store
	history vt.History

	// scratchG is the guarantee vector reused by every collection sweep,
	// keeping the per-advance GC hop allocation-free. Only touched under
	// Base.Mu.
	scratchG []vt.Timestamp
}

// New creates a channel.
func New(cfg Config) *Channel {
	c := &Channel{}
	c.Base.Init(cfg, c.live.Len)
	return c
}

// AttachConsumer registers an input connection with the given
// sliding-window width (1 for ordinary consumers). It must happen before
// the consumer's first get; attaching after items were already collected
// is fine — the new consumer simply starts at the present.
func (c *Channel) AttachConsumer(conn graph.ConnID, window int) error {
	if window < 1 {
		return fmt.Errorf("%w: window width %d < 1 on %q", buffer.ErrUnsupported, window, c.Name())
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	c.AttachConsumerLocked(conn, window)
	return nil
}

// DetachConsumer removes a consumer connection. Its guarantee becomes
// Infinity for collection purposes: it will never request anything again.
func (c *Channel) DetachConsumer(conn graph.ConnID) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if !c.DetachConsumerLocked(conn) {
		return
	}
	c.Coll.Forget(c.Node(), conn)
	// Any frees below wake capacity waiters via freeLocked; parked
	// consumers are unaffected by a detach.
	c.collectLocked()
}

// FailProducer removes a producer attachment that failed permanently.
// Once every producer has failed, blocked and future gets report
// ErrPeerFailed instead of waiting forever — items already live remain
// consumable first via TryGet-style paths, but a blocking get for data
// that can never arrive is unblocked with the typed condition.
func (c *Channel) FailProducer(conn graph.ConnID) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.FailProducerLocked(conn) {
		c.BroadcastConsumersLocked()
	}
}

// FailConsumer removes a consumer attachment that failed permanently.
// Like DetachConsumer its guarantee becomes infinite for collection; in
// addition the failure is recorded so that, once every consumer has
// failed, producers blocked on capacity report ErrPeerFailed and
// WouldBeDead turns true (production for a dead audience is wasted by
// definition).
func (c *Channel) FailConsumer(conn graph.ConnID) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if !c.DetachConsumerLocked(conn) {
		return
	}
	c.Coll.Forget(c.Node(), conn)
	c.MarkConsumerFailedLocked()
	c.collectLocked()
	if c.ConsumersExhaustedLocked() {
		c.BroadcastFullLocked()
	}
}

// Put inserts an item: a PutBatch of one. It blocks while a bounded
// channel is full and returns ErrClosed/ErrDuplicate on those
// conditions. The returned duration is the time spent blocked on
// capacity.
func (c *Channel) Put(conn graph.ConnID, it *Item) (time.Duration, error) {
	_, blocked, err := c.PutBatch(conn, []*Item{it})
	return blocked, err
}

// PutBatch inserts items in order under one lock acquisition, stopping
// at the first failing item (applied counts the prefix that took
// effect). Collection and consumer wakeups are amortized to once per
// batch; when a bounded channel fills mid-batch the applied prefix is
// published (and consumers woken) before the producer parks, so the
// consumers that must free capacity can see the items already inserted.
func (c *Channel) PutBatch(conn graph.ConnID, items []*Item) (int, time.Duration, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if err := c.CheckProducerLocked(conn); err != nil {
		return 0, 0, err
	}
	var blocked time.Duration
	applied, flushed := 0, 0
	flush := func() {
		if applied > flushed {
			c.AccountPutBatchLocked(items[flushed:applied])
			flushed = applied
			c.collectLocked()
			c.BroadcastConsumersLocked()
		}
	}
	var err error
	for _, it := range items {
		if c.SealedLocked() {
			err = fmt.Errorf("%w: put into sealed %q", buffer.ErrDraining, c.Name())
			break
		}
		if c.AtCapacityLocked() {
			flush()
			var d time.Duration
			d, err = c.AwaitCapacityLocked()
			blocked += d
			if err != nil {
				break
			}
		}
		if c.ClosedLocked() {
			err = ErrClosed
			break
		}
		if !c.history.Add(it.TS) {
			err = fmt.Errorf("%w: %v on %q", ErrDuplicate, it.TS, c.Name())
			break
		}
		c.live.insert(it.TS, it)
		applied++
	}
	flush()
	return applied, blocked, err
}

// Get blocks until an item newer than the connection's guarantee is
// available and consumes the newest such item, advancing the guarantee and
// recording everything in between as skipped. This is the "threads always
// request the latest item" discipline the ARU algorithm is predicated on
// (§3.3.3).
func (c *Channel) Get(conn graph.ConnID) (GetResult, error) {
	res, _, err := c.getLatest(conn, true)
	return res, err
}

// TryGet is the non-blocking variant of Get: if an item newer than the
// connection's guarantee is available it is consumed exactly as Get
// would, otherwise ok is false and nothing changes. Stages that reuse
// their previous input when no fresh one exists (the tracker's detectors
// reusing the current histogram model) are built on it.
func (c *Channel) TryGet(conn graph.ConnID) (res GetResult, ok bool, err error) {
	return c.getLatest(conn, false)
}

// getLatest consumes the newest unseen item. With block set it waits
// for one and res.Blocked carries the wait (also on error); without it
// nothing fresh returns ok == false. A sealed channel with nothing fresh
// reports ErrClosed — no new item can ever arrive, so the consumer's
// flush is complete — and polling consumers terminate there instead of
// spinning on ok == false.
func (c *Channel) getLatest(conn graph.ConnID, block bool) (res GetResult, ok bool, err error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	cs, err := c.ConsumerLocked(conn)
	if err != nil {
		return GetResult{}, false, err
	}
	var w buffer.WaitTimer
	for {
		switch newest := c.live.max(); {
		case newest > cs.LastSeen:
			res, ok = c.deliverLocked(cs, newest), true
		case c.ClosedLocked() || c.SealedLocked():
			err = ErrClosed
		case c.ProducersExhaustedLocked():
			err = fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, c.Name())
		case block:
			c.WaitConsumer(&w)
			continue
		}
		res.Blocked = c.Waited(&w)
		return res, ok, err
	}
}

// deliverLocked hands the item at newest — the newest live item — to the
// consumer as a window head: trailing live items within the window are
// re-delivered, older unseen items are marked skipped, and the consumer's
// guarantee advances to newest-(window-1). Both passes slice the sorted
// live run in place. The Skipped/Window slices are backed by the
// connection's scratch buffers — valid until its next get — so windowed
// and skipping gets are allocation-free in steady state.
func (c *Channel) deliverLocked(cs *buffer.Consumer, newest vt.Timestamp) GetResult {
	var res GetResult
	windowStart := newest - cs.Window + 1
	live := c.live.live()
	head := len(live) - 1 // live[head].ts == newest
	// Window members: [windowStart, newest), including previously seen
	// items the window may re-read.
	win := c.live.after(windowStart - 1)
	// Skipped: unseen live items older than the window, i.e.
	// (lastSeen, windowStart) — windowStart ≤ newest always holds.
	cs.SkippedScratch = cs.SkippedScratch[:0]
	for _, e := range live[min(c.live.after(cs.LastSeen), win):win] {
		cs.SkippedScratch = append(cs.SkippedScratch, buffer.Snapshot(e.it))
	}
	if len(cs.SkippedScratch) > 0 {
		res.Skipped = cs.SkippedScratch
	}
	cs.WindowScratch = cs.WindowScratch[:0]
	for _, e := range live[win:head] {
		cs.WindowScratch = append(cs.WindowScratch, buffer.Snapshot(e.it))
	}
	if len(cs.WindowScratch) > 0 {
		res.Window = cs.WindowScratch
	}
	res.Item = buffer.Snapshot(live[head].it)
	cs.LastSeen = newest
	c.NoteDeliveredLocked(1)
	// The consumer will never request ≤ windowStart again: the next
	// head is at least newest+1, so the next window starts at least at
	// windowStart+1.
	c.advanceLocked(cs, windowStart)
	return res
}

// GetBatch consumes up to len(dst) unseen live items oldest-first under
// one lock acquisition, blocking only until the first is available. It
// is the channel's lossless drain: unlike Get, nothing is marked
// skipped — every delivered item counts as consumed — and the guarantee
// advances only past the delivered prefix, so items beyond the batch
// stay live for the next call. Windowed consumers (re-reading trailing
// items would conflict with the drain's guarantee advance) are rejected
// with ErrUnsupported.
func (c *Channel) GetBatch(conn graph.ConnID, dst []GetResult) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	cs, err := c.ConsumerLocked(conn)
	if err != nil {
		return 0, err
	}
	if cs.Window > 1 {
		return 0, fmt.Errorf("%w: batch get on windowed consumer of %q", buffer.ErrUnsupported, c.Name())
	}
	var w buffer.WaitTimer
	for {
		if unseen := c.live.live()[c.live.after(cs.LastSeen):]; len(unseen) > 0 {
			n := min(len(unseen), len(dst))
			for i, e := range unseen[:n] {
				dst[i] = GetResult{Item: buffer.Snapshot(e.it)}
			}
			newest := unseen[n-1].ts
			cs.LastSeen = newest
			c.NoteDeliveredLocked(n)
			c.advanceLocked(cs, newest)
			dst[0].Blocked = c.Waited(&w)
			return n, nil
		}
		if c.ClosedLocked() || c.SealedLocked() {
			return 0, ErrClosed
		}
		if c.ProducersExhaustedLocked() {
			return 0, fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, c.Name())
		}
		c.WaitConsumer(&w)
	}
}

// GetAt blocks until the item at exactly ts is available and consumes it.
// It fails with ErrPassed if the connection's guarantee has moved past ts,
// and with ErrGone if the item existed but was collected (possible when
// another consumer's skip pattern let the collector reclaim it first).
// Unlike Get, GetAt does not mark intermediate items skipped; it is the
// primitive for stages that need corresponding timestamps rather than
// freshest data.
func (c *Channel) GetAt(conn graph.ConnID, ts vt.Timestamp) (GetResult, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	cs, err := c.ConsumerLocked(conn)
	if err != nil {
		return GetResult{}, err
	}
	var w buffer.WaitTimer
	for {
		if ts <= cs.Guarantee {
			return GetResult{Blocked: c.Waited(&w)}, fmt.Errorf("%w: %v ≤ guarantee on %q", ErrPassed, ts, c.Name())
		}
		if it := c.live.find(ts); it != nil {
			res := GetResult{Item: buffer.Snapshot(it), Blocked: c.Waited(&w)}
			if ts > cs.LastSeen {
				cs.LastSeen = ts
			}
			c.NoteDeliveredLocked(1)
			c.advanceLocked(cs, ts-cs.Window+1)
			return res, nil
		}
		// Not live, but a producer has put at or past it: either the
		// collector freed it, or it never existed and is already
		// unreachable.
		if ts <= c.history.Max() {
			return GetResult{Blocked: c.Waited(&w)}, fmt.Errorf("%w: %v on %q", ErrGone, ts, c.Name())
		}
		if c.ClosedLocked() || c.SealedLocked() {
			return GetResult{Blocked: c.Waited(&w)}, ErrClosed
		}
		if c.ProducersExhaustedLocked() {
			return GetResult{Blocked: c.Waited(&w)}, fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, c.Name())
		}
		c.WaitConsumer(&w)
	}
}

// advanceLocked moves a consumer's guarantee to ts and lets the collector
// reclaim whatever died. Capacity waiters are woken by freeLocked, one
// per reclaimed slot; nothing else needs waking on an advance.
func (c *Channel) advanceLocked(cs *buffer.Consumer, ts vt.Timestamp) {
	if ts <= cs.Guarantee {
		return
	}
	cs.Guarantee = ts
	c.Coll.Observe(c.Node(), cs.Conn, ts)
	c.collectLocked()
}

// collectLocked asks the collector for its bound and frees every live
// item at or below it — a prefix of the live run. The guarantee vector
// lives in a per-channel scratch buffer, so the sweep is allocation-free
// in steady state.
func (c *Channel) collectLocked() {
	if c.live.Len() == 0 {
		return
	}
	c.scratchG = c.scratchG[:0]
	for _, cs := range c.Consumers {
		c.scratchG = append(c.scratchG, cs.Guarantee)
	}
	bound := c.Coll.Bound(c.Node(), c.scratchG)
	if bound == vt.None {
		return
	}
	for c.live.Len() > 0 && c.live.min() <= bound {
		c.freeLocked(c.live.pop())
	}
}

// freeLocked reclaims one item already popped from the live run: it
// accounts the free, wakes one capacity waiter for the freed slot, and
// recycles the item through the configured pool.
func (c *Channel) freeLocked(it *Item) {
	c.AccountFreeLocked(it)
	c.RecycleLocked(it)
}

// shedLocked frees every live item, counting those newer than seen as
// discarded undelivered, and returns how many it freed.
func (c *Channel) shedLocked(seen vt.Timestamp) int {
	n := c.live.Len()
	c.AccountShedLocked(int64(n - c.live.after(seen)))
	for c.live.Len() > 0 {
		c.freeLocked(c.live.pop())
	}
	return n
}

// Close marks the channel closed, frees every remaining live item, and
// wakes all blocked operations. Live items no consumer had seen yet are
// counted as explicitly shed — a closed channel discards them, and the
// conservation ledger must say so rather than letting them vanish.
func (c *Channel) Close() {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if !c.MarkClosedLocked() {
		return
	}
	// An item was delivered iff some consumer advanced past it; anything
	// newer than every consumer's head is discarded undelivered.
	maxSeen := vt.None
	for _, cs := range c.Consumers {
		if cs.LastSeen > maxSeen {
			maxSeen = cs.LastSeen
		}
	}
	c.shedLocked(maxSeen)
	for _, cs := range c.Consumers {
		c.Coll.Forget(c.Node(), cs.Conn)
	}
	c.BroadcastLocked()
}

// Drained reports that the channel is sealed and every attached consumer
// has seen its newest live item: nothing fresh remains to flush. Window
// trails may keep delivered items live, so "sealed and empty" would be
// too strict; "sealed with no consumers but live items" is not drained —
// those items can only be shed.
func (c *Channel) Drained() bool {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if !c.SealedLocked() {
		return false
	}
	if c.live.Len() == 0 {
		return true
	}
	if len(c.Consumers) == 0 {
		return false
	}
	newest := c.live.max()
	for _, cs := range c.Consumers {
		if cs.LastSeen < newest {
			return false
		}
	}
	return true
}

// Drain discards items still live after Close, reporting each to OnFree
// and counting it as shed, and returns how many it discarded. Close
// already frees every live item, so Drain on a closed channel normally
// reports 0; it exists for interface parity with FIFO backends, which
// retain items at close for consumers to drain.
func (c *Channel) Drain() int {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.shedLocked(vt.None)
}

// WouldBeDead reports whether an item put at ts right now would be
// immediately unreachable: every attached consumer's guarantee has
// already moved past it. It backs the dead-timestamp computation
// elimination of §3.2 — a producer about to do work for ts can skip it.
// (The paper reports this technique had "limited success" because
// upstream threads run ahead of consumer guarantees; the ABL4 ablation
// reproduces that finding.)
func (c *Channel) WouldBeDead(ts vt.Timestamp) bool {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.ClosedLocked() {
		return true
	}
	if len(c.Consumers) == 0 {
		// No consumers left: dead only when they *failed* (production
		// for a dead audience is wasted); before any consumer attaches,
		// items are presumed reachable.
		return c.ConsumersExhaustedLocked()
	}
	for _, cs := range c.Consumers {
		if cs.Guarantee < ts {
			return false
		}
	}
	return true
}

// Guarantee returns a consumer connection's current guarantee, or vt.None
// if the connection is unknown.
func (c *Channel) Guarantee(conn graph.ConnID) vt.Timestamp {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if cs, err := c.ConsumerLocked(conn); err == nil {
		return cs.Guarantee
	}
	return vt.None
}
