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
// this package adds only the channel discipline — the timestamp-indexed
// item map, the sorted live set, get-latest/sliding-window delivery, and
// guarantee-driven garbage collection.
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
	TryGet:     true,
}

// Channel is a timestamped buffer. All methods are safe for concurrent
// use.
//
// An item's lifecycle is tracked by the (items, live) pair: a timestamp in
// items but absent from live is a tombstone — the collector freed it, and
// Get reports ErrGone rather than "not yet produced".
type Channel struct {
	buffer.Base

	// items and live are guarded by Base.Mu.
	items  map[vt.Timestamp]*Item
	live   *vt.Set
	maxPut vt.Timestamp

	// scratchG and scratchDead are per-channel scratch buffers reused by
	// every collection sweep (guarantee vector and dead-timestamp list),
	// keeping the per-advance GC hop allocation-free. Both are only
	// touched under Base.Mu.
	scratchG    []vt.Timestamp
	scratchDead []vt.Timestamp
}

// New creates a channel.
func New(cfg Config) *Channel {
	c := &Channel{
		items:  make(map[vt.Timestamp]*Item),
		live:   vt.NewSet(),
		maxPut: vt.None,
	}
	c.Base.Init(cfg, c.live.Len)
	return c
}

// Caps reports the channel backend's capabilities.
func (c *Channel) Caps() buffer.Caps { return caps }

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

// AttachConsumerWindow registers a consumer that analyzes a sliding
// window of width n ≥ 1 (the paper's gesture-recognition motif: "a
// sliding window over a video stream"). After consuming the item at
// timestamp T the consumer may still re-read items in (T-n, T], so its
// collection guarantee trails the head by n-1 timestamps. n < 1 panics.
func (c *Channel) AttachConsumerWindow(conn graph.ConnID, n int) {
	if err := c.AttachConsumer(conn, n); err != nil {
		panic(fmt.Sprintf("channel: window width %d < 1 on %q", n, c.Name()))
	}
}

// DetachConsumer removes a consumer connection. Its guarantee becomes
// Infinity for collection purposes: it will never request anything again.
func (c *Channel) DetachConsumer(conn graph.ConnID) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if _, ok := c.Consumers[conn]; !ok {
		return
	}
	delete(c.Consumers, conn)
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
	if _, ok := c.Consumers[conn]; !ok {
		return
	}
	delete(c.Consumers, conn)
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
		if _, dup := c.items[it.TS]; dup {
			err = fmt.Errorf("%w: %v on %q", ErrDuplicate, it.TS, c.Name())
			break
		}
		c.items[it.TS] = it
		c.live.Add(it.TS)
		if it.TS > c.maxPut {
			c.maxPut = it.TS
		}
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
	var start time.Duration
	if block {
		start = c.Clock().Now()
	}
	for {
		switch newest := c.live.Max(); {
		case newest > cs.LastSeen:
			res, ok = c.deliverLocked(cs, newest), true
		case c.ClosedLocked() || c.SealedLocked():
			err = ErrClosed
		case c.ProducersExhaustedLocked():
			err = fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, c.Name())
		case block:
			c.WaitConsumer()
			continue
		}
		if block {
			res.Blocked = c.Clock().Now() - start
		}
		return res, ok, err
	}
}

// deliverLocked hands the item at newest to the consumer as a window
// head: trailing live items within the window are re-delivered, older
// unseen items are marked skipped, and the consumer's guarantee advances
// to newest-(window-1). Both passes walk the sorted live set in place
// (vt.Set.AscendRange): the skip-free, window-1 fast path touches no
// intermediate storage at all. The Skipped/Window slices are backed by
// the connection's scratch buffers — valid until its next get — so
// windowed and skipping gets are allocation-free in steady state.
func (c *Channel) deliverLocked(cs *buffer.Consumer, newest vt.Timestamp) GetResult {
	var res GetResult
	windowStart := newest - cs.Window + 1
	// Skipped: unseen live items older than the window, i.e.
	// (lastSeen, windowStart) — windowStart ≤ newest always holds.
	cs.SkippedScratch = cs.SkippedScratch[:0]
	c.live.AscendRange(cs.LastSeen+1, windowStart, func(ts vt.Timestamp) bool {
		cs.SkippedScratch = append(cs.SkippedScratch, buffer.Snapshot(c.items[ts]))
		return true
	})
	if len(cs.SkippedScratch) > 0 {
		res.Skipped = cs.SkippedScratch
	}
	// Window members: [windowStart, newest), including previously seen
	// items the window may re-read.
	cs.WindowScratch = cs.WindowScratch[:0]
	c.live.AscendRange(windowStart, newest, func(ts vt.Timestamp) bool {
		cs.WindowScratch = append(cs.WindowScratch, buffer.Snapshot(c.items[ts]))
		return true
	})
	if len(cs.WindowScratch) > 0 {
		res.Window = cs.WindowScratch
	}
	res.Item = buffer.Snapshot(c.items[newest])
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
	start := c.Clock().Now()
	for {
		if c.live.Max() > cs.LastSeen {
			n := 0
			c.live.AscendRange(cs.LastSeen+1, vt.Infinity, func(ts vt.Timestamp) bool {
				if n == len(dst) {
					return false
				}
				dst[n] = GetResult{Item: buffer.Snapshot(c.items[ts])}
				n++
				return true
			})
			newest := dst[n-1].Item.TS
			cs.LastSeen = newest
			c.NoteDeliveredLocked(n)
			c.advanceLocked(cs, newest)
			dst[0].Blocked = c.Clock().Now() - start
			return n, nil
		}
		if c.ClosedLocked() || c.SealedLocked() {
			return 0, ErrClosed
		}
		if c.ProducersExhaustedLocked() {
			return 0, fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, c.Name())
		}
		c.WaitConsumer()
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
	start := c.Clock().Now()
	for {
		if ts <= cs.Guarantee {
			return GetResult{Blocked: c.Clock().Now() - start}, fmt.Errorf("%w: %v ≤ guarantee on %q", ErrPassed, ts, c.Name())
		}
		if it, present := c.items[ts]; present {
			if !c.live.Contains(ts) {
				return GetResult{Blocked: c.Clock().Now() - start}, fmt.Errorf("%w: %v on %q", ErrGone, ts, c.Name())
			}
			res := GetResult{Item: buffer.Snapshot(it), Blocked: c.Clock().Now() - start}
			if ts > cs.LastSeen {
				cs.LastSeen = ts
			}
			c.NoteDeliveredLocked(1)
			c.advanceLocked(cs, ts-cs.Window+1)
			return res, nil
		}
		// The item may never have existed but already be unreachable: a
		// producer has moved past it.
		if c.maxPut > ts {
			return GetResult{Blocked: c.Clock().Now() - start}, fmt.Errorf("%w: %v on %q", ErrGone, ts, c.Name())
		}
		if c.ClosedLocked() || c.SealedLocked() {
			return GetResult{Blocked: c.Clock().Now() - start}, ErrClosed
		}
		if c.ProducersExhaustedLocked() {
			return GetResult{Blocked: c.Clock().Now() - start}, fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, c.Name())
		}
		c.WaitConsumer()
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

// collectLocked asks the collector for dead timestamps and frees them.
// The guarantee vector and the dead list live in per-channel scratch
// buffers, so the sweep is allocation-free in steady state.
func (c *Channel) collectLocked() {
	if c.live.Empty() {
		return
	}
	c.scratchG = c.scratchG[:0]
	for _, cs := range c.Consumers {
		c.scratchG = append(c.scratchG, cs.Guarantee)
	}
	c.scratchDead = c.Coll.Dead(c.Node(), c.live, c.scratchG, c.scratchDead[:0])
	for _, ts := range c.scratchDead {
		c.freeLocked(ts)
	}
}

// tombstone is the shared sentinel retained in the items map for freed
// timestamps. Liveness decisions always consult the live set first, so
// the sentinel's fields are never read as data — retaining one shared
// instance (instead of the freed item itself) lets freeLocked hand the
// real item back to the pool.
var tombstone = &Item{}

// freeLocked reclaims one item, wakes one capacity waiter for the freed
// slot, and recycles the item through the configured pool.
func (c *Channel) freeLocked(ts vt.Timestamp) {
	it, ok := c.items[ts]
	if !ok || !c.live.Contains(ts) {
		return
	}
	c.live.Remove(ts)
	c.AccountFreeLocked(it)
	// Retain a tombstone so GetAt(ts) can distinguish ErrGone from "not
	// yet produced"; the freed item itself goes back to the pool.
	c.items[ts] = tombstone
	c.RecycleLocked(it)
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
	// Collect the live timestamps first: freeLocked mutates the set.
	c.scratchDead = c.scratchDead[:0]
	var shed int64
	c.live.Ascend(func(ts vt.Timestamp) bool {
		c.scratchDead = append(c.scratchDead, ts)
		if ts > maxSeen {
			shed++
		}
		return true
	})
	c.AccountShedLocked(shed)
	for _, ts := range c.scratchDead {
		c.freeLocked(ts)
	}
	for conn := range c.Consumers {
		c.Coll.Forget(c.Node(), conn)
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
	if c.live.Empty() {
		return true
	}
	if len(c.Consumers) == 0 {
		return false
	}
	newest := c.live.Max()
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
	c.scratchDead = c.scratchDead[:0]
	c.live.Ascend(func(ts vt.Timestamp) bool {
		c.scratchDead = append(c.scratchDead, ts)
		return true
	})
	c.AccountShedLocked(int64(len(c.scratchDead)))
	for _, ts := range c.scratchDead {
		c.freeLocked(ts)
	}
	return len(c.scratchDead)
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
	if cs, ok := c.Consumers[conn]; ok {
		return cs.Guarantee
	}
	return vt.None
}
