package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vt"
)

// Prometheus family names for the wire-layer instruments. Client-side
// families carry a {buffer="<endpoint name>"} label; the server-side
// dedup family carries {channel="<hosted name>"}.
const (
	MetricRTT        = "aru_remote_rtt_seconds"
	MetricRedials    = "aru_remote_redials_total"
	MetricTimeouts   = "aru_remote_timeouts_total"
	MetricDegraded   = "aru_remote_degraded_total"
	MetricReattached = "aru_remote_reattached_total"
	MetricPutRetries = "aru_remote_put_retries_total"
	MetricDedupHits  = "aru_remote_dedup_hits_total"
)

// endpointCaps describes the wire-backed backend: get-latest discipline
// without windows or timestamped access (the protocol serves the
// freshest unseen item), and Remote — its storage lives on the server,
// summary-STP feedback crosses the wire, and the hosting runtime must
// use a real clock.
var endpointCaps = buffer.Caps{
	Discipline: buffer.Latest,
	Remote:     true,
}

func init() {
	buffer.Register("remote", buffer.Backend{
		New:  func(cfg buffer.Config) (buffer.Buffer, error) { return NewEndpoint(cfg) },
		Caps: endpointCaps,
	})
}

// Endpoint mounts a server-hosted channel (package remote's wire
// protocol) as a buffer.Buffer graph endpoint: the third backend of the
// registry, proving the buffer layer is pluggable beyond the two
// in-process disciplines. Each attached connection holds its own TCP
// session, mirroring Stampede's one-socket-per-attachment design.
//
// Summary-STP feedback flows through buffer.Feedback: every Get forwards
// the consuming thread's summary to the server (where it lands in the
// hosted channel's backwardSTP vector), and every Put reply delivers the
// channel's compressed summary, which the endpoint hands to the hosting
// runtime via ObserveBufferSummary — the §3.3.2 piggyback rules, over a
// real socket.
type Endpoint struct {
	cfg  buffer.Config
	name string // hosted channel name on the server

	// Live instruments (nil / zero when cfg.Metrics is nil). Wire
	// counters are shared across this endpoint's sessions; the registry
	// aggregates, so per-session granularity is deliberately not kept.
	mRTT *metrics.Histogram
	wire WireInstruments

	mu        sync.Mutex
	producers map[graph.ConnID]*Producer
	consumers map[graph.ConnID]*Consumer
	closed    bool
	sealed    bool
	inflight  int // wire puts currently outstanding
	puts      int64
	drained   int64 // items served to a consumer after Seal

	// inst are the per-buffer families every backend registers. The
	// endpoint maintains puts and drained; its items live on the server,
	// so the local high-water marks stay zero.
	inst buffer.Instruments
}

// NewEndpoint creates a wire-backed endpoint for the channel named
// cfg.RemoteName (default cfg.Name) on the server at cfg.Addr. No
// connection is made yet; attaches dial.
func NewEndpoint(cfg buffer.Config) (*Endpoint, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("remote: endpoint %q has no server address", cfg.Name)
	}
	name := cfg.RemoteName
	if name == "" {
		name = cfg.Name
	}
	e := &Endpoint{
		cfg:       cfg,
		name:      name,
		producers: make(map[graph.ConnID]*Producer),
		consumers: make(map[graph.ConnID]*Consumer),
	}
	if reg := cfg.Metrics; reg != nil {
		ls := cfg.MetricLabels()
		e.mRTT = reg.Histogram(MetricRTT, "Round-trip latency of remote puts.", nil, ls)
		e.wire = WireInstruments{
			Redials:    reg.Counter(MetricRedials, "Backoff redial cycles after wire faults.", ls),
			Timeouts:   reg.Counter(MetricTimeouts, "Remote calls lost to a deadline expiry.", ls),
			Degraded:   reg.Counter(MetricDegraded, "Operations that exhausted the retry budget (ErrDegraded).", ls),
			Reattached: reg.Counter(MetricReattached, "Successful redial+replay cycles (ErrReattached).", ls),
			PutRetries: reg.Counter(MetricPutRetries, "Puts re-sent with the idempotent-retry flag.", ls),
		}
	}
	e.inst = buffer.NewInstruments(cfg)
	return e, nil
}

// dialConfig translates the endpoint's buffer.RemoteTuning into the
// client layer's DialConfig for one attachment.
func (e *Endpoint) dialConfig(window int) DialConfig {
	t := e.cfg.Remote
	return DialConfig{
		Addr:        e.cfg.Addr,
		Channel:     e.name,
		CallTimeout: t.CallTimeout,
		GetTimeout:  t.GetTimeout,
		Backoff: Backoff{
			Base:   t.RetryBase,
			Cap:    t.RetryCap,
			Factor: t.RetryFactor,
			Jitter: t.RetryJitter,
		},
		MaxRetries:  t.MaxRetries,
		Clock:       e.cfg.Clock,
		Seed:        t.Seed,
		Window:      window,
		Instruments: e.wire,
	}
}

// AttachProducer dials a producer session to the hosted channel.
func (e *Endpoint) AttachProducer(conn graph.ConnID) error {
	p, err := DialProducerConfig(e.dialConfig(0))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		p.Close()
		return buffer.ErrClosed
	}
	if _, dup := e.producers[conn]; dup {
		p.Close()
		return nil
	}
	e.producers[conn] = p
	return nil
}

// AttachConsumer dials a consumer session to the hosted channel. The
// wire protocol serves whole fresh items only, so window > 1 is
// rejected with ErrUnsupported.
func (e *Endpoint) AttachConsumer(conn graph.ConnID, window int) error {
	if window != 1 {
		return fmt.Errorf("%w: window width %d on wire-backed endpoint %q", buffer.ErrUnsupported, window, e.cfg.Name)
	}
	c, err := DialConsumerConfig(e.dialConfig(window))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		c.Close()
		return buffer.ErrClosed
	}
	if _, dup := e.consumers[conn]; dup {
		c.Close()
		return nil
	}
	e.consumers[conn] = c
	return nil
}

// DetachConsumer closes the connection's consumer session; the server
// treats its guarantee as infinite from then on.
func (e *Endpoint) DetachConsumer(conn graph.ConnID) {
	e.mu.Lock()
	c := e.consumers[conn]
	delete(e.consumers, conn)
	e.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// producer returns the session for a producer connection.
func (e *Endpoint) producer(conn graph.ConnID) (*Producer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, buffer.ErrClosed
	}
	p, ok := e.producers[conn]
	if !ok {
		return nil, fmt.Errorf("%w: producer %d on %q", buffer.ErrNotAttached, conn, e.cfg.Name)
	}
	return p, nil
}

// consumer returns the session for a consumer connection.
func (e *Endpoint) consumer(conn graph.ConnID) (*Consumer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, buffer.ErrClosed
	}
	c, ok := e.consumers[conn]
	if !ok {
		return nil, fmt.Errorf("%w: consumer %d on %q", buffer.ErrNotAttached, conn, e.cfg.Name)
	}
	return c, nil
}

// wireErr maps wire-level failures to the shared buffer errors: a closed
// endpoint (or a server that went away mid-call) reports ErrClosed so
// the runtime translates it into a clean shutdown. ErrDegraded and
// ErrReattached already wrap their buffer-layer counterparts and pass
// through unchanged.
func (e *Endpoint) wireErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrClosed) {
		return buffer.ErrClosed
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return buffer.ErrClosed
	}
	return err
}

// Put sends an item over the wire. Payloads must be []byte (or nil): the
// endpoint refuses to guess an encoding for arbitrary values. The
// channel's summary-STP piggybacked on the reply is delivered to the
// hosting runtime through cfg.Feedback.
func (e *Endpoint) Put(conn graph.ConnID, it *buffer.Item) (time.Duration, error) {
	p, err := e.producer(conn)
	if err != nil {
		return 0, err
	}
	payload, ok := it.Payload.([]byte)
	if !ok && it.Payload != nil {
		return 0, fmt.Errorf("%w: remote put payload must be []byte, got %T", buffer.ErrUnsupported, it.Payload)
	}
	if err := e.beginPut(); err != nil {
		return 0, err
	}
	defer e.endPut()
	var start time.Duration
	if e.mRTT != nil {
		start = e.cfg.Clock.Now()
	}
	summary, err := p.Put(it.TS, payload, it.Size)
	if e.mRTT != nil {
		e.mRTT.Observe(e.cfg.Clock.Now() - start)
	}
	if err != nil && !errors.Is(err, ErrReattached) {
		return 0, e.wireErr(err)
	}
	e.mu.Lock()
	e.puts++
	e.mu.Unlock()
	e.inst.MPuts.Inc()
	if e.cfg.Feedback != nil {
		e.cfg.Feedback.ObserveBufferSummary(summary)
	}
	// err is nil or the informational ErrReattached (which wraps
	// buffer.ErrReattached): the put was applied either way. The item's
	// bytes are on the server now, so the local carrier goes back to the
	// pool — the wire backend never holds item pointers past the call.
	e.cfg.Pool.Recycle(it)
	return 0, err
}

// PutBatch sends items one request at a time: the wire protocol's unit
// of synchronization is the round trip, so there is no lock to amortize
// and the serial fallback is the native path.
func (e *Endpoint) PutBatch(conn graph.ConnID, items []*buffer.Item) (int, time.Duration, error) {
	return buffer.PutBatchSerial(e, conn, items)
}

// GetBatch serves one blocking get then drains non-blocking gets while
// the batch has room (the serial fallback).
func (e *Endpoint) GetBatch(conn graph.ConnID, dst []buffer.GetResult) (int, error) {
	return buffer.GetBatchSerial(e, conn, dst)
}

// Get blocks until the hosted channel serves a fresh item, forwarding the
// consuming thread's summary-STP with the request. Time spent inside the
// call is reported as blocked: under the required real clock it covers
// both the wire and the server-side wait for data.
func (e *Endpoint) Get(conn graph.ConnID) (buffer.GetResult, error) {
	c, err := e.consumer(conn)
	if err != nil {
		return buffer.GetResult{}, err
	}
	if e.isSealed() {
		// Sealed: local producers can no longer put, so a blocking wait
		// would hang on a flushed channel. Serve whatever is still fresh
		// without blocking; nothing fresh means the flush completed.
		it, ok, terr := c.TryGetLatest(e.consumerSummary(conn))
		if terr != nil && !errors.Is(terr, ErrReattached) {
			return buffer.GetResult{}, e.wireErr(terr)
		}
		if !ok {
			return buffer.GetResult{}, buffer.ErrClosed
		}
		e.noteDelivered(1)
		return e.result(it, 0), terr
	}
	start := e.cfg.Clock.Now()
	it, err := c.GetLatest(e.consumerSummary(conn))
	blocked := e.cfg.Clock.Now() - start
	if err != nil && !errors.Is(err, ErrReattached) {
		return buffer.GetResult{Blocked: blocked}, e.wireErr(err)
	}
	// err is nil or the informational ErrReattached: the item is valid.
	e.noteDelivered(1)
	return e.result(it, blocked), err
}

// TryGet is the non-blocking Get.
func (e *Endpoint) TryGet(conn graph.ConnID) (buffer.GetResult, bool, error) {
	c, err := e.consumer(conn)
	if err != nil {
		return buffer.GetResult{}, false, err
	}
	it, ok, err := c.TryGetLatest(e.consumerSummary(conn))
	if err != nil && !errors.Is(err, ErrReattached) {
		return buffer.GetResult{}, false, e.wireErr(err)
	}
	if !ok {
		if e.isSealed() {
			// Sealed with nothing fresh: the flush completed.
			return buffer.GetResult{}, false, buffer.ErrClosed
		}
		return buffer.GetResult{}, false, err // nil or informational
	}
	e.noteDelivered(1)
	return e.result(it, 0), true, err // nil or informational
}

// consumerSummary reads the consuming thread's summary-STP to piggyback
// on an outgoing get.
func (e *Endpoint) consumerSummary(conn graph.ConnID) core.STP {
	if e.cfg.Feedback == nil {
		return core.Unknown
	}
	return e.cfg.Feedback.ConsumerSummary(conn)
}

// result converts a wire item into the shared GetResult. Skipped stale
// items are known by timestamp only (their payloads stayed on the
// server); they carry no trace identity.
func (e *Endpoint) result(it Item, blocked time.Duration) buffer.GetResult {
	res := buffer.GetResult{
		Item:    buffer.Item{TS: it.TS, Payload: it.Payload, Size: it.Size},
		Blocked: blocked,
	}
	for _, ts := range it.SkippedTS {
		res.Skipped = append(res.Skipped, buffer.Item{TS: ts})
	}
	return res
}

// WouldBeDead reports false: the endpoint has no local knowledge of the
// server-side consumer guarantees.
func (e *Endpoint) WouldBeDead(ts vt.Timestamp) bool { return false }

// Close tears down every session. The hosted channel itself stays up —
// it belongs to the server, which may serve other processes.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	producers := e.producers
	consumers := e.consumers
	e.producers = make(map[graph.ConnID]*Producer)
	e.consumers = make(map[graph.ConnID]*Consumer)
	e.mu.Unlock()
	for _, p := range producers {
		p.Close()
	}
	for _, c := range consumers {
		c.Close()
	}
}

// beginPut admits a wire put: sealed endpoints reject it with
// ErrDraining, open ones count it in-flight so Drained waits for its
// round trip (including any redial+replay cycle) to complete.
func (e *Endpoint) beginPut() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return buffer.ErrClosed
	}
	if e.sealed {
		return fmt.Errorf("%w: put into sealed %q", buffer.ErrDraining, e.cfg.Name)
	}
	e.inflight++
	return nil
}

// endPut retires an in-flight wire put.
func (e *Endpoint) endPut() {
	e.mu.Lock()
	e.inflight--
	e.mu.Unlock()
}

// noteDelivered counts post-seal deliveries toward the drained total.
func (e *Endpoint) noteDelivered(n int) {
	e.mu.Lock()
	sealed := e.sealed
	if sealed {
		e.drained += int64(n)
	}
	e.mu.Unlock()
	if sealed {
		e.inst.MDrained.Add(int64(n))
	}
}

// Seal flips the endpoint into drain mode: new puts are rejected with
// ErrDraining while gets keep serving whatever the hosted channel still
// holds. In-flight puts — including idempotent batch replays after a
// reconnect — run to completion; Drained waits for them.
func (e *Endpoint) Seal() {
	e.mu.Lock()
	e.sealed = true
	e.mu.Unlock()
}

// isSealed reports whether Seal has been called.
func (e *Endpoint) isSealed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealed
}

// Drained reports that the endpoint is sealed and every in-flight wire
// put has completed its round trip: nothing this process produced can
// still be in transit. Items already accepted by the server live there —
// the hosted channel outlives the endpoint by design — so server-side
// occupancy does not gate a local drain.
func (e *Endpoint) Drained() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealed && e.inflight == 0
}

// Drain reports 0: buffered items live on the server, which reclaims
// them through its own collector.
func (e *Endpoint) Drain() int { return 0 }

// Stats reads the endpoint's books. Items and Bytes are the hosted
// channel's occupancy, queried over a fresh connection bounded by the
// endpoint's CallTimeout; they read zero when the server is unreachable
// (e.g. after shutdown). Puts and Drained are counted locally. Frees,
// the high-water marks and Shed happen on the server and read zero, as
// does PutBlocked: a wire put has no local capacity to block on.
func (e *Endpoint) Stats() buffer.Stats {
	var st buffer.Stats
	if items, bytes, err := Stats(e.cfg.Addr, e.name, e.cfg.Remote.CallTimeout); err == nil {
		st.Items, st.Bytes = items, bytes
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st.Puts, st.Drained = e.puts, e.drained
	return st
}
