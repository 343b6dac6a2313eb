// Package buffer defines the pluggable buffer-endpoint layer of the
// runtime: the Buffer interface every timestamped buffer backend
// implements, the shared Item/GetResult types, and a Base that owns the
// machinery every in-process backend needs (wait queues parked through
// the clock, attachment maps, capacity blocking, and puts/frees/liveBytes
// accounting).
//
// The paper treats threads, channels, and queues as uniform task-graph
// nodes that all relay summary-STP feedback; this package is the code
// form of that uniformity. The runtime wires thread ports to Buffer
// values and dispatches every put/get through the interface — no type
// switches — so new backends (a FIFO queue, a get-latest channel, a
// TCP-served remote channel, ...) plug in through the Registry without
// touching the runtime layer.
package buffer

import (
	"errors"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vt"
)

// Errors shared by all buffer backends. The channel and queue packages
// re-export them under their historical names; errors.Is works across
// the aliases.
var (
	// ErrClosed reports an operation on a closed buffer.
	ErrClosed = errors.New("buffer: closed")
	// ErrDuplicate reports a put of a timestamp already present
	// (random-access backends only).
	ErrDuplicate = errors.New("buffer: duplicate timestamp")
	// ErrPassed reports a get of a timestamp the connection's guarantee
	// has already moved past.
	ErrPassed = errors.New("buffer: timestamp already passed")
	// ErrGone reports a get of an item the collector freed.
	ErrGone = errors.New("buffer: item was garbage collected")
	// ErrNotAttached reports use of a connection id that was never
	// attached.
	ErrNotAttached = errors.New("buffer: connection not attached")
	// ErrUnsupported reports an operation the backend does not provide
	// (e.g. a sliding window on a FIFO queue or a wire-backed channel).
	// The runtime surfaces it as a typed port-kind error at wiring or
	// call time — never as a panic.
	ErrUnsupported = errors.New("buffer: operation unsupported by backend")
	// ErrDegraded reports that a wire-backed operation exhausted its
	// redial/retry budget: the remote peer is unreachable right now and
	// the operation did NOT take effect (a put's item was dropped, a
	// get returned nothing). The endpoint keeps reconnecting in the
	// background; callers should treat the fault as observable load
	// shedding, not a crash.
	ErrDegraded = errors.New("buffer: remote endpoint degraded")
	// ErrReattached is informational: the operation SUCCEEDED, but only
	// after the underlying connection was redialed and its attachment
	// replayed. The result accompanying the error is valid; callers that
	// do not care may ignore it (errors.Is(err, ErrReattached)).
	ErrReattached = errors.New("buffer: remote endpoint re-attached")
	// ErrPeerFailed reports that an operation can never complete because
	// every peer on the other side of the buffer failed permanently: a
	// get blocked on a buffer whose producers all died, or a put blocked
	// on capacity in a buffer whose consumers all died. It is delivered
	// by the thread supervisor's failure propagation (FailProducer /
	// FailConsumer) so peers of a dead stage observe a typed condition
	// instead of hanging forever.
	ErrPeerFailed = errors.New("buffer: peer thread failed permanently")
	// ErrDraining reports a put into a sealed buffer: the runtime is
	// draining and no new items are accepted, but items already buffered
	// remain consumable (gets keep serving until the buffer is empty,
	// then report ErrClosed). Producers should treat it like a shutdown
	// signal for the put path — stop producing, let downstream flush.
	ErrDraining = errors.New("buffer: sealed for drain, no new puts")
)

// PeerFailer is implemented by backends that support failure-aware
// detach: the thread supervisor calls these when a thread fails
// permanently so the dead stage's peers unblock with ErrPeerFailed
// instead of waiting forever. Backends that cannot observe peer death
// (wire-backed endpoints, whose peers live in other processes) simply
// don't implement it; the runtime falls back to DetachConsumer.
type PeerFailer interface {
	// FailProducer removes a producer attachment that failed
	// permanently. Once every producer has failed, blocked and future
	// gets that would otherwise wait forever report ErrPeerFailed
	// (items already buffered remain consumable first where the
	// discipline allows it).
	FailProducer(conn graph.ConnID)
	// FailConsumer removes a consumer attachment that failed
	// permanently (like DetachConsumer, its collection guarantee
	// becomes infinite). Once every consumer has failed, puts blocked
	// on capacity report ErrPeerFailed and WouldBeDead turns true —
	// production for a dead audience is wasted by definition.
	FailConsumer(conn graph.ConnID)
}

// Item is one timestamped data element stored in (or passing through) a
// buffer. All backends share this one type, so the runtime's put/get
// paths never convert between per-backend item structs.
type Item struct {
	// TS is the item's virtual timestamp.
	TS vt.Timestamp
	// Payload is the application data.
	Payload any
	// Size is the logical size in bytes used for footprint and transfer
	// accounting (the paper's item sizes: a digitizer frame is 738 kB).
	Size int64
	// ID is the trace identity of this item instance.
	ID trace.ItemID
}

// GetResult is the outcome of a successful get. All item fields are
// snapshots taken under the buffer lock: the backend may reclaim its
// stored items at any moment after the call returns, so callers never
// share memory with the buffer.
type GetResult struct {
	// Item is the consumed item (snapshot).
	Item Item
	// Skipped lists the live items the connection passed over to reach
	// Item (stale data dropped by get-latest semantics), oldest first.
	Skipped []Item
	// Window lists the retained trailing items preceding Item (oldest
	// first) for sliding-window consumers; empty for window width 1.
	Window []Item
	// Blocked is the time spent waiting for a fresh item.
	Blocked time.Duration
}

// Discipline is a backend's consumption order.
type Discipline uint8

const (
	// Latest marks get-latest (channel) semantics: every consumer sees
	// every item and may skip stale ones.
	Latest Discipline = iota
	// FIFO marks work-queue semantics: each item goes to exactly one
	// consumer, in put order.
	FIFO
)

// String returns the lowercase discipline name.
func (d Discipline) String() string {
	if d == FIFO {
		return "fifo"
	}
	return "latest"
}

// Caps describes what a backend supports. The runtime validates port
// usage against it at wiring time, so misuse surfaces as a typed error
// before (or instead of) a hot-path type assertion.
type Caps struct {
	// Discipline is the backend's consumption order.
	Discipline Discipline
	// Windows reports sliding-window consumer support.
	Windows bool
	// GetAt reports support for consuming an exact timestamp: the
	// backend's instances implement AtGetter.
	GetAt bool
	// Remote marks a backend whose storage lives outside this process:
	// summary-STP feedback crosses a wire, so the local controller must
	// treat the buffer's summary as externally supplied, and the
	// runtime requires a real clock (a discrete-event clock cannot see
	// network blocking).
	Remote bool
}

// Feedback lets a backend exchange summary-STP values with the hosting
// runtime. In-process backends ignore it (the controller piggybacks
// feedback itself); wire-backed backends use it to forward a consumer's
// summary-STP with each get and to deliver the buffer's summary-STP
// received with each put reply.
type Feedback interface {
	// ConsumerSummary returns the current summary-STP of the thread
	// consuming over conn.
	ConsumerSummary(conn graph.ConnID) core.STP
	// ObserveBufferSummary delivers the buffer's summary-STP as
	// reported by its authoritative (remote) holder.
	ObserveBufferSummary(s core.STP)
}

// RemoteTuning tunes a wire-backed backend's fault tolerance. The zero
// value means defaults everywhere; in-process backends ignore it.
type RemoteTuning struct {
	// CallTimeout bounds each bounded request/response round trip
	// (attach, put, try-get, stats) with read/write deadlines; a stalled
	// peer surfaces as a typed timeout instead of a wedged connection.
	// Zero means the backend default (5s).
	CallTimeout time.Duration
	// GetTimeout bounds a blocking get's wait for the reply. Zero means
	// wait forever (a legitimately idle channel must not look like a
	// fault); set it above the longest expected idle gap to bound fault
	// detection on consumers.
	GetTimeout time.Duration
	// RetryBase/RetryCap/RetryFactor/RetryJitter shape the capped
	// exponential redial backoff (defaults 50ms / 2s / 2 / 0.2).
	RetryBase   time.Duration
	RetryCap    time.Duration
	RetryFactor float64
	RetryJitter float64
	// MaxRetries is the per-operation redial/retry budget before the
	// operation reports ErrDegraded. Zero means the default (3);
	// negative disables retries.
	MaxRetries int
	// Seed fixes the jitter randomness for deterministic tests; zero
	// derives a seed from the clock.
	Seed int64
	// StaleTTL is the age past which a remote summary-STP stops being
	// trusted: its contribution to the backward fold decays linearly to
	// Unknown over a second TTL, so a producer throttled by a dead
	// consumer returns to local pacing (the paper-safe direction). Zero
	// means the default (10s); negative disables decay.
	StaleTTL time.Duration
}

// Config configures a buffer backend. Fields irrelevant to a backend
// are ignored (queues ignore Collector; in-process backends ignore
// Addr/RemoteName/Feedback).
type Config struct {
	// Name is the buffer's system-wide unique name.
	Name string
	// Tenant optionally names the tenant/pipeline the buffer belongs to;
	// when set, every metric instrument carries it as a `tenant` label so
	// multi-tenant runs sharing one registry stay distinguishable.
	Tenant string
	// Node is the buffer's task-graph identity.
	Node graph.NodeID
	// Clock supplies event times; nil means a real clock.
	Clock clock.Clock
	// Collector reclaims dead items (random-access backends); nil
	// means gc.NewNone().
	Collector gc.Collector
	// OnFree, if non-nil, observes every reclaimed item (the runtime
	// releases the item's footprint and records EvFree trace events here,
	// reading its clock only when it traces).
	OnFree func(it *Item)
	// Capacity bounds the number of live items; Put blocks while full.
	// Zero means unbounded (the Stampede default).
	Capacity int
	// Addr is the server address for wire-backed backends.
	Addr string
	// RemoteName is the hosted buffer name on the server; empty means
	// Name.
	RemoteName string
	// Feedback is the runtime's summary-STP exchange hook for
	// wire-backed backends.
	Feedback Feedback
	// Remote tunes a wire-backed backend's fault tolerance (deadlines,
	// redial backoff, staleness TTL); in-process backends ignore it.
	Remote RemoteTuning
	// Metrics, when non-nil, receives the backend's live instruments
	// (puts/frees counters, occupancy high-water marks, blocked-put wait
	// histogram; wire-backed backends add round-trip latency and fault
	// counters), labeled by buffer name. Nil keeps the hot path
	// instrument-free: handles are nil and no-op after one branch.
	Metrics *metrics.Registry
	// Pool, when non-nil, receives items back once the buffer is done
	// with them (after reclamation and the OnFree observer). The runtime
	// shares one pool across all its buffers so the steady-state
	// put→free cycle reuses Item allocations. Nil disables recycling.
	Pool *ItemPool
}

// MetricLabels returns the label set a backend's instruments must carry:
// the buffer name, plus the tenant tag when one is configured. Every
// backend registers through this helper so the tenant dimension is
// uniform across families.
func (c Config) MetricLabels() metrics.Labels {
	ls := metrics.Labels{"buffer": c.Name}
	if c.Tenant != "" {
		ls["tenant"] = c.Tenant
	}
	return ls
}

// Stats is one consistent reading of a buffer's books. In-process
// backends built on Base take it under one lock acquisition, so
// Puts - Frees == Items holds in every reading; backends that keep their
// counters in separate atomics document what they promise instead.
type Stats struct {
	// Items and Bytes are the live occupancy.
	Items int
	Bytes int64
	// Puts and Frees are the cumulative insert and reclaim counts.
	Puts, Frees int64
	// HighWaterItems and HighWaterBytes are the occupancy high-water
	// marks since creation. The metrics instruments maintain them, so
	// they read zero when metrics are disabled.
	HighWaterItems, HighWaterBytes int64
	// PutBlocked and PutBlockedCount are the cumulative time producers
	// spent blocked on capacity and the number of puts that blocked: the
	// elastic scheduler's backlog-pressure sensor.
	PutBlocked      time.Duration
	PutBlockedCount int64
	// Drained counts items delivered to a consumer after Seal; Shed
	// counts items discarded undelivered (by Drain, or by closing a
	// buffer that still held backlog). Both survive Close.
	Drained, Shed int64
}

// AtGetter is the optional random-access face of a backend whose Caps
// declare GetAt. The runtime checks the declaration at wiring time and
// type-asserts the face at call time.
type AtGetter interface {
	// GetAt consumes the item at exactly ts, blocking until it is
	// available.
	GetAt(conn graph.ConnID, ts vt.Timestamp) (GetResult, error)
}

// Buffer is a timestamped buffer endpoint as seen by the runtime. All
// methods must be safe for concurrent use.
type Buffer interface {
	// AttachProducer registers an output connection of a producer
	// thread. It must happen before the producer's first Put.
	AttachProducer(conn graph.ConnID) error
	// AttachConsumer registers an input connection with the given
	// sliding-window width (1 for ordinary consumers). Backends
	// without window support reject window > 1 with ErrUnsupported.
	AttachConsumer(conn graph.ConnID, window int) error
	// DetachConsumer removes a consumer connection; its collection
	// guarantee becomes infinite.
	DetachConsumer(conn graph.ConnID)

	// Put inserts an item, blocking while a bounded buffer is full.
	// The returned duration is the time spent blocked on capacity.
	// Ownership of it transfers to the buffer exactly when the put took
	// effect (err == nil, or ErrReattached); on any other error the
	// caller keeps the item and may recycle it.
	Put(conn graph.ConnID, it *Item) (time.Duration, error)
	// PutBatch inserts items in order under one synchronization round,
	// returning how many were applied and the total time blocked on
	// capacity. It stops at the first failing item: applied < len(items)
	// implies err != nil, and ownership of items[applied:] stays with
	// the caller. Backends without a native batch path may apply items
	// one by one (PutBatchSerial).
	PutBatch(conn graph.ConnID, items []*Item) (applied int, blocked time.Duration, err error)
	// Get consumes the next item per the backend's discipline —
	// freshest-unseen for Latest, oldest for FIFO — blocking until one
	// is available.
	Get(conn graph.ConnID) (GetResult, error)
	// GetBatch consumes up to len(dst) immediately consumable items into
	// dst, blocking only until the first is available: n >= 1 when err
	// is nil, and dst[0].Blocked carries the wait. Latest backends
	// deliver every unseen live item oldest-first (a lossless drain — no
	// Skipped marking — and reject window > 1 consumers with
	// ErrUnsupported); FIFO backends dequeue in order. len(dst) == 0
	// returns (0, nil) without blocking.
	GetBatch(conn graph.ConnID, dst []GetResult) (n int, err error)
	// TryGet is the non-blocking Get; ok is false when nothing is
	// consumable right now.
	TryGet(conn graph.ConnID) (res GetResult, ok bool, err error)

	// WouldBeDead reports whether an item put at ts right now would be
	// immediately unreachable (§3.2 upstream computation elimination).
	// Backends whose items are never skipped report false.
	WouldBeDead(ts vt.Timestamp) bool

	// Seal flips the buffer into drain mode: every subsequent Put /
	// PutBatch is rejected with ErrDraining (and any put blocked on
	// capacity unblocks with it), while gets keep serving the items
	// already buffered. Once nothing consumable remains for a
	// connection, its gets report ErrClosed — the flush-then-terminate
	// contract consumers drain on. Sealing is idempotent and weaker
	// than Close: Close still fully closes a sealed buffer.
	Seal()
	// Drained reports that the buffer is sealed and holds nothing any
	// consumer could still consume: the flush completed.
	Drained() bool

	// Close marks the buffer closed and wakes all blocked operations.
	Close()
	// Drain discards items still buffered after Close, reporting each
	// to OnFree, and returns how many it discarded.
	Drain() int

	// Stats returns one consistent reading of the buffer's books.
	Stats() Stats
}
