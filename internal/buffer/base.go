package buffer

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vt"
)

// Prometheus family names for the per-buffer instruments registered by
// NewInstruments. They carry a {buffer="<name>"} label.
const (
	MetricPuts       = "aru_buffer_puts_total"
	MetricFrees      = "aru_buffer_frees_total"
	MetricItemsHW    = "aru_buffer_items_highwater"
	MetricBytesHW    = "aru_buffer_bytes_highwater"
	MetricPutBlocked = "aru_buffer_put_blocked_seconds"
	MetricDrained    = "aru_buffer_drained_items_total"
	MetricShed       = "aru_buffer_shed_items_total"
)

// Consumer tracks one attached consumer connection. Backends read and
// update the fields under Base.Mu.
type Consumer struct {
	// Conn is the connection's graph identity.
	Conn graph.ConnID
	// Guarantee is the timestamp bound the consumer will never request
	// at or below again; the collector relies on it. FIFO backends leave
	// it at vt.None.
	Guarantee vt.Timestamp
	// LastSeen is the newest timestamp delivered as a window head.
	LastSeen vt.Timestamp
	// Window is the sliding-window width: how many trailing items
	// (including the head) the consumer may still re-read. 1 is the
	// ordinary consumer.
	Window vt.Timestamp
	// SkippedScratch and WindowScratch back the GetResult.Skipped and
	// GetResult.Window slices delivered to this connection. Reusing them
	// across gets keeps windowed and skipping gets allocation-free; the
	// returned slices are therefore only valid until the connection's
	// next get.
	SkippedScratch []Item
	WindowScratch  []Item
}

// Instruments are the live per-buffer metric handles, resolved once by
// NewInstruments (the cold path). All are nil when Config.Metrics is
// nil, and every metrics method no-ops on nil, so an event costs one
// branch with metrics off and a fixed number of atomic ops with them on.
type Instruments struct {
	MPuts       *metrics.Counter
	MFrees      *metrics.Counter
	MItemsHW    *metrics.Gauge
	MBytesHW    *metrics.Gauge
	MPutBlocked *metrics.Histogram
	MDrained    *metrics.Counter
	MShed       *metrics.Counter
}

// NewInstruments registers the per-buffer metric families for cfg. It
// returns the zero Instruments when cfg.Metrics is nil.
func NewInstruments(cfg Config) Instruments {
	reg := cfg.Metrics
	if reg == nil {
		return Instruments{}
	}
	ls := cfg.MetricLabels()
	return Instruments{
		MPuts:       reg.Counter(MetricPuts, "Items inserted into the buffer.", ls),
		MFrees:      reg.Counter(MetricFrees, "Items reclaimed by the collector (or drained).", ls),
		MItemsHW:    reg.Gauge(MetricItemsHW, "High-water mark of live items.", ls),
		MBytesHW:    reg.Gauge(MetricBytesHW, "High-water mark of live bytes.", ls),
		MPutBlocked: reg.Histogram(MetricPutBlocked, "Time producers spent blocked on capacity (blocking puts only).", nil, ls),
		MDrained:    reg.Counter(MetricDrained, "Items delivered to a consumer after the buffer was sealed for drain.", ls),
		MShed:       reg.Counter(MetricShed, "Items discarded undelivered at shutdown (explicitly shed, not silently lost).", ls),
	}
}

// WaitQueue is a FIFO of goroutines parked through a clock
// (clock.Park/Ready). A waker readies exactly the waiters it wakes,
// oldest first, so a discrete-event clock hands them the turn in a
// defined order. The zero value is ready to use; the caller's mutex
// guards it.
type WaitQueue struct {
	q    []clock.Ticket
	free []clock.Ticket // tickets for reuse: a parked wait allocates nothing
}

// Wait queues the caller and blocks it, mu released, until a Wake
// readies its ticket; it returns with mu held again. The caller holds
// mu and re-checks its predicate afterwards.
func (w *WaitQueue) Wait(c clock.Clock, mu *sync.Mutex) {
	var tk clock.Ticket
	if n := len(w.free); n > 0 {
		tk, w.free = w.free[n-1], w.free[:n-1]
	} else {
		tk = clock.NewTicket()
	}
	w.q = append(w.q, tk)
	mu.Unlock()
	clock.Park(c, tk)
	mu.Lock()
	w.free = append(w.free, tk)
}

// Wake readies the n oldest waiters, or all of them when n is negative
// or exceeds the queue. The caller holds the guarding mutex.
func (w *WaitQueue) Wake(c clock.Clock, n int) {
	q := w.q
	if n < 0 || n > len(q) {
		n = len(q)
	}
	for _, tk := range q[:n] {
		clock.Ready(c, tk)
	}
	rest := copy(q, q[n:])
	clear(q[rest:])
	w.q = q[:rest]
}

// Base owns the machinery every in-process buffer backend needs: wait
// queues of parked consumers and producers, producer/consumer attachment
// maps, capacity blocking with blocked-time measurement, and
// liveBytes/puts/frees accounting. Backends embed it and add their
// storage discipline (a sorted live run plus put history for channels, a
// head-indexed slice for queues).
//
// Consumers waiting for fresh data park on consQ (woken by puts and
// close), producers waiting for capacity on prodQ (woken by frees and
// close).
type Base struct {
	// Cfg is the buffer's configuration with defaults applied (Clock and
	// Collector are never nil after Init).
	Cfg Config
	// Coll is the item collector (gc.NewNone() when Cfg.Collector was
	// nil).
	Coll gc.Collector

	// Mu guards all mutable state of the Base and of the embedding
	// backend.
	Mu    sync.Mutex
	consQ WaitQueue // consumers parked for a fresh item (or close)
	prodQ WaitQueue // producers parked for capacity (or close)

	// Consumers are the attached consumer connections in attach order: a
	// buffer has a handful, and the per-advance collection sweep walks
	// them all, so a slice beats a map. Producers is the producer
	// attachment set.
	Consumers []*Consumer
	Producers map[graph.ConnID]bool

	closed    bool
	sealed    bool
	puts      int64
	frees     int64
	liveBytes int64
	drained   int64 // items delivered to a consumer after Seal
	shed      int64 // items discarded undelivered (Drain, or Close with backlog)

	// putBlockedNs / putBlockedN accumulate producer capacity-blocking
	// (the elastic scheduler's backlog-pressure sensor). Maintained
	// metrics on or off: the cost lands only on puts that actually
	// blocked, a path that already read the clock twice.
	putBlockedNs int64
	putBlockedN  int64

	// prodFailed / consFailed count attachments removed because their
	// thread failed permanently (FailProducer / FailConsumer). They
	// distinguish "all peers are dead" from "no peers attached yet":
	// exhaustion predicates only fire once at least one peer has actually
	// failed, so startup ordering never looks like a failure.
	prodFailed int
	consFailed int

	// occupied counts the backend's currently live items for capacity
	// blocking. It is stored once at Init — not passed per call — so the
	// hot path never allocates a closure crossing the package boundary.
	occupied func() int

	Instruments
}

// Init prepares the Base: applies Config defaults (real clock, no-op
// collector), allocates the producer set, and stores the backend's
// live-item counter used for capacity blocking.
func (b *Base) Init(cfg Config, occupied func() int) {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	b.Cfg = cfg
	b.Coll = cfg.Collector
	if b.Coll == nil {
		b.Coll = gc.NewNone()
	}
	b.Producers = make(map[graph.ConnID]bool)
	b.occupied = occupied
	b.Instruments = NewInstruments(cfg)
}

// Name returns the buffer's system-wide unique name, for the embedding
// backend's error messages.
func (b *Base) Name() string { return b.Cfg.Name }

// Node returns the buffer's task-graph id, the key of the embedding
// backend's collector calls.
func (b *Base) Node() graph.NodeID { return b.Cfg.Node }

// Clock returns the buffer's clock (never nil after Init).
func (b *Base) Clock() clock.Clock { return b.Cfg.Clock }

// WaitTimer measures one get's blocked time. The clock is read when the
// get first parks and once more when it returns, so a get that never
// parks never reads it. The zero value is ready to use.
type WaitTimer struct {
	start  time.Duration
	parked bool
}

// WaitConsumer parks a consumer until a put, a failure or a close wakes
// it; the caller re-checks its predicate. w times the get across all of
// its parks.
func (b *Base) WaitConsumer(w *WaitTimer) {
	if !w.parked {
		w.start, w.parked = b.Cfg.Clock.Now(), true
	}
	b.consQ.Wait(b.Cfg.Clock, &b.Mu)
}

// Waited returns how long the get timed by w has blocked: zero, with no
// clock read, when it never parked.
func (b *Base) Waited(w *WaitTimer) time.Duration {
	if !w.parked {
		return 0
	}
	return b.Cfg.Clock.Now() - w.start
}

// SignalConsumersLocked wakes up to n parked consumers — one per newly
// enqueued item. FIFO backends use it on puts so a k-item batch wakes
// min(k, waiters) consumers.
func (b *Base) SignalConsumersLocked(n int) { b.consQ.Wake(b.Cfg.Clock, n) }

// AtCapacityLocked reports whether a put would block right now. Batch
// puts consult it before each insert so they can publish (and wake
// consumers for) the prefix already applied before parking — otherwise
// a batch larger than the remaining capacity would deadlock against the
// very consumers that must drain it.
func (b *Base) AtCapacityLocked() bool {
	return b.Cfg.Capacity > 0 && b.occupied() >= b.Cfg.Capacity
}

// AwaitCapacityLocked blocks the calling producer while the buffer is at
// capacity, returning the time spent blocked. Unbounded buffers return
// immediately without reading the clock (the hot path stays clock-free).
// When every consumer has failed permanently while the producer waits,
// the wait reports ErrPeerFailed: with a dead audience the collector
// will never free a slot (guarantees stop advancing), so the producer
// would otherwise block forever. A sealed buffer rejects the put with
// ErrDraining — immediately, or when Seal lands while the producer is
// parked — so drains never wait on producers that can no longer help.
func (b *Base) AwaitCapacityLocked() (time.Duration, error) {
	if b.sealed {
		return 0, fmt.Errorf("%w: put into sealed %q", ErrDraining, b.Cfg.Name)
	}
	if b.Cfg.Capacity <= 0 {
		return 0, nil
	}
	start := b.Cfg.Clock.Now()
	for !b.closed && !b.sealed && b.occupied() >= b.Cfg.Capacity {
		if b.ConsumersExhaustedLocked() {
			d := b.Cfg.Clock.Now() - start
			b.accountPutBlockedLocked(d)
			return d, fmt.Errorf("%w: all consumers of %q failed while producer blocked on capacity", ErrPeerFailed, b.Cfg.Name)
		}
		b.prodQ.Wait(b.Cfg.Clock, &b.Mu)
	}
	d := b.Cfg.Clock.Now() - start
	if d > 0 {
		b.accountPutBlockedLocked(d)
	}
	if b.sealed && !b.closed {
		return d, fmt.Errorf("%w: put into sealed %q", ErrDraining, b.Cfg.Name)
	}
	return d, nil
}

// accountPutBlockedLocked records one capacity-blocked put: the
// cumulative ledger behind Stats.PutBlocked plus the histogram
// observation when metrics are on.
func (b *Base) accountPutBlockedLocked(d time.Duration) {
	b.putBlockedNs += int64(d)
	b.putBlockedN++
	b.MPutBlocked.Observe(d)
}

// FailProducerLocked removes a producer attachment that failed
// permanently, reporting whether it was the last one: once true, gets
// that would wait forever should report ErrPeerFailed instead.
func (b *Base) FailProducerLocked(conn graph.ConnID) bool {
	if b.Producers[conn] {
		delete(b.Producers, conn)
		b.prodFailed++
	}
	return b.ProducersExhaustedLocked()
}

// ProducersExhaustedLocked reports whether every producer has failed
// permanently: at least one failed and none remain. A buffer that never
// had producers attached reports false (startup, not failure).
func (b *Base) ProducersExhaustedLocked() bool {
	return b.prodFailed > 0 && len(b.Producers) == 0
}

// MarkConsumerFailedLocked records one consumer's permanent failure.
// The backend removes the attachment itself (it owns the collector
// bookkeeping); this only maintains the failure count behind
// ConsumersExhaustedLocked.
func (b *Base) MarkConsumerFailedLocked() { b.consFailed++ }

// ConsumersExhaustedLocked reports whether every consumer has failed
// permanently: at least one failed and none remain.
func (b *Base) ConsumersExhaustedLocked() bool {
	return b.consFailed > 0 && len(b.Consumers) == 0
}

// BroadcastConsumersLocked wakes every parked consumer: after a put into
// a channel (its consumers wait on heterogeneous predicates), and when
// the last producer fails so blocked gets re-check the exhaustion
// predicate.
func (b *Base) BroadcastConsumersLocked() { b.consQ.Wake(b.Cfg.Clock, -1) }

// CheckProducerLocked validates that conn is an attached producer.
func (b *Base) CheckProducerLocked(conn graph.ConnID) error {
	if !b.Producers[conn] {
		return fmt.Errorf("%w: producer %d on %q", ErrNotAttached, conn, b.Cfg.Name)
	}
	return nil
}

// consumerIndex returns the position of conn in Consumers, or -1.
func (b *Base) consumerIndex(conn graph.ConnID) int {
	for i, cs := range b.Consumers {
		if cs.Conn == conn {
			return i
		}
	}
	return -1
}

// ConsumerLocked returns the state of an attached consumer connection.
func (b *Base) ConsumerLocked(conn graph.ConnID) (*Consumer, error) {
	i := b.consumerIndex(conn)
	if i < 0 {
		return nil, fmt.Errorf("%w: consumer %d on %q", ErrNotAttached, conn, b.Cfg.Name)
	}
	return b.Consumers[i], nil
}

// AttachProducer registers an output connection of a producer thread.
func (b *Base) AttachProducer(conn graph.ConnID) error {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	b.Producers[conn] = true
	return nil
}

// AttachConsumerLocked registers a consumer connection with the given
// sliding-window width; duplicate attaches keep the original state.
func (b *Base) AttachConsumerLocked(conn graph.ConnID, window int) {
	if b.consumerIndex(conn) >= 0 {
		return
	}
	b.Consumers = append(b.Consumers, &Consumer{
		Conn: conn, Guarantee: vt.None, LastSeen: vt.None, Window: vt.Timestamp(window),
	})
}

// DetachConsumerLocked removes a consumer connection, reporting whether
// it was attached.
func (b *Base) DetachConsumerLocked(conn graph.ConnID) bool {
	i := b.consumerIndex(conn)
	if i < 0 {
		return false
	}
	b.Consumers = slices.Delete(b.Consumers, i, i+1)
	return true
}

// AccountPutBatchLocked records a batch of inserted items with a single
// metrics branch: the counter advances once by the batch size.
func (b *Base) AccountPutBatchLocked(items []*Item) {
	var bytes int64
	for _, it := range items {
		bytes += it.Size
	}
	b.liveBytes += bytes
	b.puts += int64(len(items))
	if b.MPuts != nil {
		b.MPuts.Add(int64(len(items)))
		b.MItemsHW.Max(int64(b.occupied()))
		b.MBytesHW.Max(b.liveBytes)
	}
}

// RecycleLocked returns an item to the configured pool. Backends call it
// at the exact point they relinquish the pointer — after reclamation
// accounting and the OnFree observer, never while the item is still
// reachable from their storage. Without a pool the item is left to the
// garbage collector, but its payload reference is still dropped so a
// freed item never extends a payload's lifetime.
func (b *Base) RecycleLocked(it *Item) {
	if b.Cfg.Pool == nil {
		if it != nil {
			it.Payload = nil
		}
		return
	}
	b.Cfg.Pool.Recycle(it)
}

// AccountFreeLocked records one reclaimed item: it adjusts liveBytes and
// the frees counter, reports the item to OnFree, and wakes one capacity
// waiter for the freed slot.
func (b *Base) AccountFreeLocked(it *Item) {
	b.liveBytes -= it.Size
	b.frees++
	b.MFrees.Inc()
	if b.Cfg.OnFree != nil {
		b.Cfg.OnFree(it)
	}
	if b.Cfg.Capacity > 0 {
		b.prodQ.Wake(b.Cfg.Clock, 1)
	}
}

// Seal flips the buffer into drain mode: subsequent puts (and puts
// blocked on capacity) report ErrDraining while gets keep serving the
// backlog. The broadcast wakes every parked operation so producers
// observe the seal and consumers re-check their termination predicates.
// Idempotent; implements Buffer.Seal for embedding backends.
func (b *Base) Seal() {
	b.Mu.Lock()
	if !b.sealed {
		b.sealed = true
		b.BroadcastLocked()
	}
	b.Mu.Unlock()
}

// SealedLocked reports the sealed flag; callers hold Mu.
func (b *Base) SealedLocked() bool { return b.sealed }

// Drained reports that the buffer is sealed and empty — the generic
// flush-complete predicate. Backends whose delivered items may remain
// live after consumption (channels retaining window trails) override it
// with a discipline-aware check.
func (b *Base) Drained() bool {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	return b.sealed && b.occupied() == 0
}

// NoteDeliveredLocked records n items delivered to a consumer while the
// buffer is sealed — the "drained" side of the conservation ledger. A
// no-op before Seal, so backends call it unconditionally on delivery.
func (b *Base) NoteDeliveredLocked(n int) {
	if b.sealed && n > 0 {
		b.drained += int64(n)
		b.MDrained.Add(int64(n))
	}
}

// AccountShedLocked records n items discarded undelivered — the
// explicitly-shed side of the conservation ledger (deadline-hit drains
// and plain Stop with backlog).
func (b *Base) AccountShedLocked(n int64) {
	if n <= 0 {
		return
	}
	b.shed += n
	b.MShed.Add(n)
}

// MarkClosedLocked sets the closed flag, reporting whether this call was
// the transition. It does not wake waiters; the backend finishes its
// close work first and then calls BroadcastLocked.
func (b *Base) MarkClosedLocked() bool {
	if b.closed {
		return false
	}
	b.closed = true
	return true
}

// ClosedLocked reports the closed flag; callers hold Mu.
func (b *Base) ClosedLocked() bool { return b.closed }

// BroadcastLocked wakes every blocked operation (used on close and
// drain).
func (b *Base) BroadcastLocked() {
	b.consQ.Wake(b.Cfg.Clock, -1)
	b.prodQ.Wake(b.Cfg.Clock, -1)
}

// BroadcastFullLocked wakes all capacity waiters (used by Drain, which
// frees slots without going through AccountFreeLocked's one-signal-per-
// slot discipline).
func (b *Base) BroadcastFullLocked() { b.prodQ.Wake(b.Cfg.Clock, -1) }

// Stats returns the buffer's books under one acquisition of Mu, so the
// reading is consistent: Puts - Frees == Items.
func (b *Base) Stats() Stats {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	return Stats{
		Items: b.occupied(), Bytes: b.liveBytes,
		Puts: b.puts, Frees: b.frees,
		HighWaterItems: b.MItemsHW.Value(), HighWaterBytes: b.MBytesHW.Value(),
		PutBlocked: time.Duration(b.putBlockedNs), PutBlockedCount: b.putBlockedN,
		Drained: b.drained, Shed: b.shed,
	}
}

// Snapshot copies the externally visible fields of an item: backends
// return snapshots, never pointers into their storage.
func Snapshot(it *Item) Item {
	return Item{TS: it.TS, Payload: it.Payload, Size: it.Size, ID: it.ID}
}
