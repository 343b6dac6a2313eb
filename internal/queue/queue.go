// Package queue implements the Stampede queue abstraction: a timestamped
// FIFO buffer. Unlike channels — where every consumer connection sees
// every item and may skip stale ones — a queue hands each item to exactly
// one consumer, in put order: the work-queue pattern used for records that
// must not be lost (the tracker pipeline's decision records in Figure 1).
//
// Queues participate in ARU exactly like channels: they are graph nodes
// with a backwardSTP vector and relay summary-STP feedback between their
// consumers and producers; they merely have trivial garbage-collection
// behaviour (an item is reclaimed the moment it is dequeued).
//
// Queue is a buffer.Buffer backend (registered as "queue"): the
// clock-aware wait queues, attachment maps, capacity blocking, and
// puts/frees/liveBytes accounting live in the embedded buffer.Base; this
// package adds only the FIFO discipline — a head-indexed slice whose
// dequeues advance head instead of re-slicing, reusing the backing array
// once drained or once the dequeued prefix fills half of it, so a
// steady-state queue stops allocating.
package queue

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/graph"
	"repro/internal/vt"
)

// Errors returned by queue operations. They alias the shared buffer
// errors, so errors.Is matches across packages.
var (
	// ErrClosed reports an operation on a closed queue.
	ErrClosed = buffer.ErrClosed
	// ErrNotAttached reports use of an unattached connection.
	ErrNotAttached = buffer.ErrNotAttached
)

// Item is one queued element (the shared buffer item type).
type Item = buffer.Item

// Config configures a queue.
type Config = buffer.Config

// GetResult is the outcome of a dequeue.
type GetResult = buffer.GetResult

func init() {
	buffer.Register("queue", buffer.Backend{
		New:  func(cfg Config) (buffer.Buffer, error) { return New(cfg), nil },
		Caps: caps,
	})
}

var caps = buffer.Caps{
	Discipline: buffer.FIFO,
}

// Queue is a FIFO of timestamped items, safe for concurrent use.
type Queue struct {
	buffer.Base

	// items and head are guarded by Base.Mu.
	items   []*Item
	head    int // index of the next item to dequeue
	lastDeq vt.Timestamp
}

// New creates a queue.
func New(cfg Config) *Queue {
	q := &Queue{lastDeq: vt.None}
	q.Base.Init(cfg, q.queued)
	return q
}

// queued returns the number of items currently buffered.
func (q *Queue) queued() int { return len(q.items) - q.head }

// AttachConsumer registers an input connection. Queues hand each item to
// exactly one consumer, so sliding windows are meaningless: window > 1 is
// rejected with ErrUnsupported.
func (q *Queue) AttachConsumer(conn graph.ConnID, window int) error {
	if window != 1 {
		return fmt.Errorf("%w: window width %d on FIFO queue %q", buffer.ErrUnsupported, window, q.Name())
	}
	q.Mu.Lock()
	defer q.Mu.Unlock()
	q.AttachConsumerLocked(conn, 1)
	return nil
}

// DetachConsumer removes a consumer connection.
func (q *Queue) DetachConsumer(conn graph.ConnID) {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	q.DetachConsumerLocked(conn)
}

// FailProducer removes a producer attachment that failed permanently.
// Once every producer has failed, consumers drain the remaining items
// and then report ErrPeerFailed instead of blocking forever.
func (q *Queue) FailProducer(conn graph.ConnID) {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if q.FailProducerLocked(conn) {
		q.BroadcastConsumersLocked()
	}
}

// FailConsumer removes a consumer attachment that failed permanently.
// Once every consumer has failed, producers blocked on capacity report
// ErrPeerFailed (nothing will ever be dequeued again).
func (q *Queue) FailConsumer(conn graph.ConnID) {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if !q.DetachConsumerLocked(conn) {
		return
	}
	q.MarkConsumerFailedLocked()
	if q.ConsumersExhaustedLocked() {
		q.BroadcastFullLocked()
	}
}

// Put enqueues an item, blocking while a bounded queue is full: a
// PutBatch of one. The returned duration is time spent blocked.
func (q *Queue) Put(conn graph.ConnID, it *Item) (time.Duration, error) {
	_, blocked, err := q.PutBatch(conn, []*Item{it})
	return blocked, err
}

// PutBatch enqueues items in order under one lock acquisition, stopping
// at the first failure. Consumer wakeups are batched — min(k, waiters)
// signals for a k-item batch — and when a bounded queue fills mid-batch
// the applied prefix is published (and consumers signaled) before the
// producer parks, so consumers can drain the capacity the batch needs.
func (q *Queue) PutBatch(conn graph.ConnID, items []*Item) (int, time.Duration, error) {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if err := q.CheckProducerLocked(conn); err != nil {
		return 0, 0, err
	}
	var blocked time.Duration
	applied, flushed := 0, 0
	flush := func() {
		if applied > flushed {
			q.AccountPutBatchLocked(q.items[len(q.items)-(applied-flushed):])
			q.SignalConsumersLocked(applied - flushed)
			flushed = applied
		}
	}
	var err error
	for _, it := range items {
		if q.SealedLocked() {
			err = fmt.Errorf("%w: put into sealed %q", buffer.ErrDraining, q.Name())
			break
		}
		if q.AtCapacityLocked() {
			flush()
			var d time.Duration
			d, err = q.AwaitCapacityLocked()
			blocked += d
			if err != nil {
				break
			}
		}
		if q.ClosedLocked() {
			err = ErrClosed
			break
		}
		q.pushLocked(it)
		applied++
	}
	flush()
	return applied, blocked, err
}

// pushLocked appends an item. When the backing array is full and at least
// half of it is the dequeued prefix, the backlog first slides down over
// that prefix, so a queue that is never fully drained reuses its array
// instead of growing it with every put.
func (q *Queue) pushLocked(it *Item) {
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, it)
}

// Get dequeues the oldest item, blocking until one is available: a
// GetBatch of one. A closed queue drains remaining items before
// reporting ErrClosed.
func (q *Queue) Get(conn graph.ConnID) (GetResult, error) {
	var one [1]GetResult
	_, err := q.get(conn, one[:], true)
	return one[0], err
}

// TryGet is the non-blocking Get: ok is false when the queue is empty.
func (q *Queue) TryGet(conn graph.ConnID) (res GetResult, ok bool, err error) {
	var one [1]GetResult
	n, err := q.get(conn, one[:], false)
	return one[0], n == 1, err
}

// GetBatch dequeues up to len(dst) items in FIFO order under one lock
// acquisition, blocking only until the first is available.
func (q *Queue) GetBatch(conn graph.ConnID, dst []GetResult) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	return q.get(conn, dst, true)
}

// get dequeues up to len(dst) ≥ 1 items in FIFO order. With block set it
// waits for the first item and dst[0].Blocked carries the wait (also on
// error); without it an empty queue returns (0, nil). A sealed or closed
// queue drains its backlog before reporting ErrClosed.
func (q *Queue) get(conn graph.ConnID, dst []GetResult, block bool) (int, error) {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if _, err := q.ConsumerLocked(conn); err != nil {
		return 0, err
	}
	var w buffer.WaitTimer
	for {
		n := min(q.queued(), len(dst))
		var err error
		switch {
		case n > 0:
			for i := 0; i < n; i++ {
				dst[i] = GetResult{Item: q.dequeueLocked()}
			}
			q.NoteDeliveredLocked(n)
		case q.ClosedLocked() || q.SealedLocked():
			// Sealed and empty: the backlog is flushed and nothing new
			// can arrive — terminate like a close.
			err = ErrClosed
		case q.ProducersExhaustedLocked():
			err = fmt.Errorf("%w: all producers of %q failed", buffer.ErrPeerFailed, q.Name())
		case block:
			q.WaitConsumer(&w)
			continue
		}
		if block {
			dst[0].Blocked = q.Waited(&w)
		}
		return n, err
	}
}

// dequeueLocked removes and accounts the head item, returning a snapshot.
// The item's storage leaves the queue here: OnFree observes it, one
// capacity waiter is woken (matching a channel free), and the item goes
// back to the pool — so the snapshot is taken before the recycle zeroes
// it.
func (q *Queue) dequeueLocked() Item {
	it := q.items[q.head]
	q.items[q.head] = nil // release the reference for GC
	q.head++
	if q.head == len(q.items) {
		// Fully drained: rewind and reuse the backing array.
		q.items = q.items[:0]
		q.head = 0
	}
	if it.TS > q.lastDeq {
		q.lastDeq = it.TS
	}
	res := buffer.Snapshot(it)
	q.AccountFreeLocked(it)
	q.RecycleLocked(it)
	return res
}

// WouldBeDead reports false in normal operation: queue items are handed
// to exactly one consumer and never skipped, so no put is ever dead on
// arrival. The one exception is a dead audience — every consumer failed
// permanently — when any enqueue is wasted by definition.
func (q *Queue) WouldBeDead(ts vt.Timestamp) bool {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	return q.ConsumersExhaustedLocked()
}

// Close marks the queue closed; consumers drain remaining items, then see
// ErrClosed.
func (q *Queue) Close() {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if !q.MarkClosedLocked() {
		return
	}
	q.BroadcastLocked()
}

// Drain discards all queued items, reporting each to OnFree and counting
// it as explicitly shed. It is used at shutdown to account remaining
// storage.
func (q *Queue) Drain() int {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	n := q.queued()
	q.AccountShedLocked(int64(n))
	for _, it := range q.items[q.head:] {
		q.AccountFreeLocked(it)
		q.RecycleLocked(it)
	}
	q.items = nil
	q.head = 0
	q.BroadcastFullLocked()
	return n
}

// LastDequeued returns the highest timestamp dequeued so far, or vt.None.
func (q *Queue) LastDequeued() vt.Timestamp {
	q.Mu.Lock()
	defer q.Mu.Unlock()
	return q.lastDeq
}
