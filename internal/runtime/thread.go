package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rand"
	"repro/internal/trace"
	"repro/internal/vt"
)

// ErrShutdown reports that an operation was interrupted because the
// runtime is stopping. Thread bodies should return promptly on it (run()
// treats it as a clean exit, so `return err` suffices).
var ErrShutdown = errors.New("runtime: shutting down")

// ErrPortKind reports a get/put variant that the port's buffer backend
// does not support — a timestamped GetAt on a FIFO queue, a GetQueue on a
// channel input, a windowed input on a backend without window support —
// and, at Start, a registered backend that declares a capability its
// instances do not implement. Before the buffer layer became pluggable
// these misuses panicked through a runtime type assertion; now they
// surface as a typed error at wiring or call time.
var ErrPortKind = errors.New("runtime: operation not supported by port's buffer backend")

// ErrDegraded reports that a wire-backed put/get exhausted its redial and
// retry budget: the remote peer is unreachable and the operation did NOT
// take effect. The endpoint keeps redialing on subsequent operations;
// bodies should treat the fault as observable load shedding (skip the
// item, keep looping), not a crash.
var ErrDegraded = buffer.ErrDegraded

// ErrReattached is informational: the operation SUCCEEDED, but only
// after its connection was redialed and the attachment replayed. The
// accompanying result is valid and all bookkeeping (provenance, feedback
// piggyback) has been performed; bodies that do not care must filter it
// with errors.Is(err, ErrReattached) before bailing on non-nil errors.
var ErrReattached = buffer.ErrReattached

// ErrPeerFailed reports that a get or put can never complete because
// every peer on the other side of the buffer failed permanently — a get
// whose producers all died, a put blocked on capacity whose consumers
// all died. It is delivered by the supervision subsystem's failure
// propagation; a body returning it fails permanently itself (the
// cascade is deliberate: restarting against a dead peer is futile), so
// whole dead subgraphs resolve instead of hanging.
var ErrPeerFailed = buffer.ErrPeerFailed

// Thread is one declared computation thread.
type Thread struct {
	rt     *Runtime
	id     graph.NodeID
	name   string
	host   int
	body   Body
	tenant string

	ins  []*InPort
	outs []*OutPort

	isSource bool
	stop     chan struct{}
	stopOnce sync.Once
	// parkMu guards parkTk, the ticket of a body sitting in Ctx.Park,
	// which requestStop readies.
	parkMu sync.Mutex
	parkTk clock.Ticket

	// quiesced flips during a graceful drain: the thread's Ctx rejects
	// further puts with ErrDraining, so no new work enters the graph
	// while the backlog flushes (see drain.go).
	quiesced atomic.Bool

	// Elastic replication (see replica.go). replicaSlot is 0 for ordinary
	// threads and the primary incarnation of a replicated stage; replicas
	// carry their slot number (≥ 1) and fold their measured current-STP
	// into the stage's parallel composition instead of overwriting it.
	// retiring is the scale-down signal: it gates the *consume* side only
	// (the mirror of quiesced, which gates produce), so a retiring replica
	// finishes delivering the outputs of the item it already holds and
	// exits cleanly before taking another.
	replicaSlot int
	retiring    atomic.Bool

	// Supervision (see supervisor.go). restart/hasRestart/stallTTL are
	// set at AddThread time and read-only afterwards; the rest is
	// guarded by supMu except lastBeat, which the hot path (Ctx.Sync)
	// stamps atomically.
	restart      RestartPolicy
	hasRestart   bool
	stallTTL     time.Duration
	supMu        sync.Mutex
	state        ThreadState
	restarts     int
	restartTimes []time.Duration
	lastFailure  *ThreadFailure
	stalled      bool
	rng          *rand.Rand
	lastBeat     atomic.Int64

	// tm holds the thread's live metric handles (see runtime/metrics.go).
	// The zero value is the metrics-off configuration: every handle is
	// nil and every use no-ops after one branch.
	tm threadInstruments
}

// ID returns the thread's task-graph id.
func (t *Thread) ID() graph.NodeID { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Tenant returns the thread's tenant/pipeline label ("" when unset).
func (t *Thread) Tenant() string { return t.tenant }

// Host returns the thread's placement.
func (t *Thread) Host() int { return t.host }

// Input connects a buffer as one of the thread's inputs and returns the
// port used to get from it.
func (t *Thread) Input(src *BufferRef) (*InPort, error) {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if err := t.rt.checkBuilding("connect input"); err != nil {
		return nil, err
	}
	conn, err := t.rt.g.Connect(src.id, t.id)
	if err != nil {
		return nil, err
	}
	p := &InPort{thread: t, ref: src, conn: conn}
	t.ins = append(t.ins, p)
	return p, nil
}

// MustInput is Input that panics on error.
func (t *Thread) MustInput(src *BufferRef) *InPort {
	p, err := t.Input(src)
	if err != nil {
		panic(err)
	}
	return p
}

// InputWindow connects a buffer as a sliding-window input of width
// n ≥ 1: GetWindow on the returned port delivers the freshest item plus
// the retained trailing items — the paper's gesture-recognition motif
// ("a sliding window over a video stream"). The backend must support
// windows (channels do, FIFO queues and wire-backed endpoints do not);
// misuse is a typed ErrPortKind error at wiring time.
func (t *Thread) InputWindow(src *BufferRef, n int) (*InPort, error) {
	if n < 1 {
		return nil, fmt.Errorf("runtime: window width %d < 1", n)
	}
	if !src.caps.Windows {
		return nil, fmt.Errorf("%w: windowed input requires a channel, got %q (backend %q)", ErrPortKind, src.name, src.backend)
	}
	p, err := t.Input(src)
	if err != nil {
		return nil, err
	}
	p.window = n
	return p, nil
}

// MustInputWindow is InputWindow that panics on error.
func (t *Thread) MustInputWindow(src *BufferRef, n int) *InPort {
	p, err := t.InputWindow(src, n)
	if err != nil {
		panic(err)
	}
	return p
}

// Output connects a buffer as one of the thread's outputs and returns the
// port used to put into it.
func (t *Thread) Output(dst *BufferRef) (*OutPort, error) {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if err := t.rt.checkBuilding("connect output"); err != nil {
		return nil, err
	}
	conn, err := t.rt.g.Connect(t.id, dst.id)
	if err != nil {
		return nil, err
	}
	p := &OutPort{thread: t, ref: dst, conn: conn}
	t.outs = append(t.outs, p)
	return p, nil
}

// MustOutput is Output that panics on error.
func (t *Thread) MustOutput(dst *BufferRef) *OutPort {
	p, err := t.Output(dst)
	if err != nil {
		panic(err)
	}
	return p
}

// prepare finalizes the thread just before Start spawns it: each port
// resolves its materialized endpoint once, so the hot path is a direct
// interface dispatch with no map lookups or type assertions.
func (t *Thread) prepare() {
	t.stop = make(chan struct{})
	t.isSource = len(t.ins) == 0
	t.rng = newSupervisionRNG(t.restart.Seed, t.name)
	t.lastBeat.Store(int64(t.rt.clk.Now()))
	for _, p := range t.ins {
		p.buf = t.rt.buffers[p.ref.id]
	}
	for _, p := range t.outs {
		p.buf = t.rt.buffers[p.ref.id]
	}
}

// requestStop signals the body's Stopped()/Done() observers and wakes a
// body parked in Ctx.Park.
func (t *Thread) requestStop() {
	t.stopOnce.Do(func() {
		t.parkMu.Lock()
		close(t.stop)
		if t.parkTk != nil {
			clock.Ready(t.rt.clk, t.parkTk)
			t.parkTk = nil
		}
		t.parkMu.Unlock()
	})
}

// run executes the body on its goroutine.
func (t *Thread) run() error {
	ctx := &Ctx{thread: t, rt: t.rt, throttle: core.NewThrottle(t.rt.clk)}
	ctx.meter.BeginIteration(t.rt.clk.Now())
	return t.body(ctx)
}

// Msg is a consumed item as seen by a thread body.
type Msg struct {
	// TS is the item's virtual timestamp.
	TS vt.Timestamp
	// Payload is the application data.
	Payload any
	// Size is the item's logical size in bytes.
	Size int64
	// ID is the trace identity (NoItem when tracing is disabled).
	ID trace.ItemID
}

// Ctx is the per-thread execution context handed to a Body. It is not
// safe for concurrent use: a body is a single loop on a single goroutine,
// exactly like a Stampede thread.
type Ctx struct {
	thread   *Thread
	rt       *Runtime
	meter    core.Meter
	throttle *core.Throttle

	// consumed and produced are this iteration's item ids, the trace's
	// provenance. They grow only when a Recorder is attached: Sync
	// truncates them, and a body that never syncs must not leak.
	consumed []trace.ItemID
	produced []trace.ItemID
	emitted  int
	iters    int64

	// Reused scratch for the put, batch and window paths: a steady-state
	// body allocates nothing per iteration. All are safe to reuse because
	// Ctx is single-goroutine by contract. putOne is the batch of one
	// behind Put.
	putOne        [1]PutSpec
	putScratch    []*buffer.Item
	putIDScratch  []trace.ItemID
	getScratch    []buffer.GetResult
	windowScratch []Msg
}

// Name returns the owning thread's name.
func (c *Ctx) Name() string { return c.thread.name }

// Host returns the owning thread's placement.
func (c *Ctx) Host() int { return c.thread.host }

// Done returns a channel closed when the runtime is stopping. Under the
// discrete-event virtual clock a body must not block on it: the clock
// runs one participant at a time, so a body waiting on Done keeps the
// turn and stalls every thread, including the one that would call Stop.
// A body that wants to idle until shutdown calls Park instead.
func (c *Ctx) Done() <-chan struct{} { return c.thread.stop }

// Park blocks until the runtime stops, giving up the body's turn on a
// discrete-event clock so every other thread keeps running.
func (c *Ctx) Park() {
	t := c.thread
	t.parkMu.Lock()
	if t.stopRequested() {
		t.parkMu.Unlock()
		return
	}
	tk := clock.NewTicket()
	t.parkTk = tk
	t.parkMu.Unlock()
	clock.Park(c.rt.clk, tk)
}

// Stopped reports whether the runtime is stopping.
func (c *Ctx) Stopped() bool {
	select {
	case <-c.thread.stop:
		return true
	default:
		return false
	}
}

// Iterations returns the number of completed Sync calls.
func (c *Ctx) Iterations() int64 { return c.iters }

// Ins returns the thread's input ports in wiring (declaration) order.
func (c *Ctx) Ins() []*InPort { return c.thread.ins }

// Outs returns the thread's output ports in wiring (declaration) order.
func (c *Ctx) Outs() []*OutPort { return c.thread.outs }

// Compute simulates data-dependent task execution for d of runtime time.
// It counts toward the iteration's busy time and hence the current-STP.
func (c *Ctx) Compute(d time.Duration) {
	c.rt.clk.Sleep(d)
}

// Idle sleeps for d of runtime time without counting toward the
// current-STP or the computation metrics — deliberate pacing, like a
// digitizer waiting for the next camera frame. The paper's computation
// accounting explicitly excludes "blocking and sleep time" (§4).
func (c *Ctx) Idle(d time.Duration) {
	if d <= 0 {
		return
	}
	c.rt.clk.Sleep(d)
	c.meter.AddThrottled(d)
}

// Elapsed returns the wall time of the current iteration so far.
func (c *Ctx) Elapsed() time.Duration { return c.meter.Elapsed(c.rt.clk.Now()) }

// ChargeBus charges the host's shared memory system for touching size
// bytes (queueing behind concurrent charges from co-located threads,
// scaled by the host's memory pressure). It models the paper's
// observation that wasteful production loads the memory system everyone
// shares.
func (c *Ctx) ChargeBus(size int64) {
	c.rt.bus(c.thread.host).ChargeScaled(size, c.rt.pressureFactor(c.thread.host))
}

// translateErr maps buffer shutdown errors to ErrShutdown.
func translateErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, buffer.ErrClosed) {
		return ErrShutdown
	}
	return err
}

// portKindErr builds the typed misuse error for a get variant the port's
// backend cannot serve.
func portKindErr(op string, ref *BufferRef) error {
	return fmt.Errorf("%w: %s on %q (backend %q, discipline %s)", ErrPortKind, op, ref.name, ref.backend, ref.caps.Discipline)
}

// Get consumes the next item from any input port per its backend's
// discipline — the freshest unseen item for channel-like (Latest)
// endpoints, the oldest for FIFO queues — blocking until one is
// available. It is the unified consumption path: skipped stale items are
// traced, the consumer's summary-STP is piggybacked to the buffer, and
// the transfer is charged to the network and the local bus, identically
// for every backend.
func (c *Ctx) Get(p *InPort) (Msg, error) {
	if c.thread.retiring.Load() {
		// A retiring replica stops consuming before taking another item;
		// the surviving incarnations drain the buffer (see replica.go).
		return Msg{}, ErrDraining
	}
	res, err := p.buf.Get(p.conn)
	c.meter.AddBlocked(res.Blocked)
	if err != nil && !errors.Is(err, buffer.ErrReattached) {
		p.noteGet(0, res.Blocked, err)
		return Msg{}, translateErr(err)
	}
	p.noteGet(1, res.Blocked, err)
	// err is nil or the informational ErrReattached: the item is valid
	// and fully accounted either way.
	return c.finishGet(p, res), err
}

// GetLatest consumes the freshest item from a get-latest (channel-like)
// input, blocking until one newer than this connection's guarantee
// arrives. It is Get restricted to Latest-discipline ports; a FIFO port
// reports ErrPortKind.
func (c *Ctx) GetLatest(p *InPort) (Msg, error) {
	if p.ref.caps.Discipline != buffer.Latest {
		return Msg{}, portKindErr("GetLatest", p.ref)
	}
	return c.Get(p)
}

// GetQueue dequeues the oldest item from a FIFO queue input. It is Get
// restricted to FIFO-discipline ports; a channel port reports
// ErrPortKind.
func (c *Ctx) GetQueue(p *InPort) (Msg, error) {
	if p.ref.caps.Discipline != buffer.FIFO {
		return Msg{}, portKindErr("GetQueue", p.ref)
	}
	return c.Get(p)
}

// GetWindow consumes the freshest item from a sliding-window input
// (declared via Thread.InputWindow) and returns it together with the
// retained trailing items, oldest first. All returned items count as
// consumed for provenance; the head drives skip/feedback semantics
// exactly like Get. The window slice is scratch owned by the Ctx — valid
// until this thread's next GetWindow call — so a steady-state windowed
// consumer allocates nothing per iteration.
func (c *Ctx) GetWindow(p *InPort) (head Msg, window []Msg, err error) {
	if !p.ref.caps.Windows {
		return Msg{}, nil, portKindErr("GetWindow", p.ref)
	}
	if c.thread.retiring.Load() {
		return Msg{}, nil, ErrDraining
	}
	res, err := p.buf.Get(p.conn)
	c.meter.AddBlocked(res.Blocked)
	if err != nil {
		p.noteGet(0, res.Blocked, err)
		return Msg{}, nil, translateErr(err)
	}
	p.noteGet(1, res.Blocked, nil)
	rec := c.rt.opts.Recorder
	var now time.Duration
	if rec != nil {
		now = c.rt.clk.Now() // the clock feeds only trace events
	}
	c.windowScratch = c.windowScratch[:0]
	for _, w := range res.Window {
		if rec != nil {
			rec.Append(trace.Event{Kind: trace.EvGet, At: now, Item: w.ID, Node: p.ref.id, Thread: c.thread.id})
			c.consumed = append(c.consumed, w.ID)
		}
		// Window members already live locally; only the head pays the
		// transfer below.
		c.windowScratch = append(c.windowScratch, Msg{TS: w.TS, Payload: w.Payload, Size: w.Size, ID: w.ID})
	}
	if len(c.windowScratch) > 0 {
		window = c.windowScratch
	}
	return c.finishGet(p, res), window, nil
}

// TryGetLatest is the non-blocking variant of Get: ok is false when no
// item newer than the connection's guarantee is available. Bodies that
// keep working with their previous input when nothing fresh exists (the
// tracker's detectors reusing the current histogram model) are built on
// it; pair it with Reuse so provenance stays accurate.
func (c *Ctx) TryGetLatest(p *InPort) (Msg, bool, error) {
	if c.thread.retiring.Load() {
		return Msg{}, false, ErrDraining
	}
	res, ok, err := p.buf.TryGet(p.conn)
	if err != nil && !errors.Is(err, buffer.ErrReattached) {
		p.noteGet(0, 0, err)
		return Msg{}, false, translateErr(err)
	}
	if !ok {
		return Msg{}, false, err // nil or informational ErrReattached
	}
	p.noteGet(1, 0, err)
	return c.finishGet(p, res), true, err // nil or informational ErrReattached
}

// Reuse declares that a previously consumed item participates in the
// current iteration's outputs, so provenance (and therefore the
// wasted-versus-successful classification and latency accounting) remains
// correct for cached inputs.
func (c *Ctx) Reuse(msg Msg) {
	if c.rt.opts.Recorder != nil && msg.ID != trace.NoItem {
		c.consumed = append(c.consumed, msg.ID)
	}
}

// GetAt consumes the item at exactly ts from a random-access input. It is
// the corresponding-timestamp primitive (stereo modules, overlays);
// backends without timestamped access (FIFO queues, wire-backed
// endpoints) report ErrPortKind.
func (c *Ctx) GetAt(p *InPort, ts vt.Timestamp) (Msg, error) {
	if !p.ref.caps.GetAt {
		return Msg{}, portKindErr("GetAt", p.ref)
	}
	if c.thread.retiring.Load() {
		return Msg{}, ErrDraining
	}
	res, err := p.buf.(buffer.AtGetter).GetAt(p.conn, ts)
	c.meter.AddBlocked(res.Blocked)
	if err != nil {
		p.noteGet(0, res.Blocked, err)
		return Msg{}, translateErr(err)
	}
	p.noteGet(1, res.Blocked, nil)
	return c.finishGet(p, res), nil
}

// finishGet completes a single-item get as a batch of one.
func (c *Ctx) finishGet(p *InPort, res buffer.GetResult) Msg {
	var msg [1]Msg
	c.finishGets(p, []buffer.GetResult{res}, msg[:])
	return msg[0]
}

// finishGets performs the post-consumption work of every get variant,
// uniformly across backends, and copies the results into dst. Each item
// is traced (skipped items first) and counted as consumed — only with a
// Recorder attached, which is also the only case the clock is read —
// then one network transfer and one bus charge move the whole set to the
// consumer, and one fold piggybacks the consumer's summary-STP back to
// the buffer (§3.3.2). The results' payload references are dropped, so
// scratch result slices never extend payload lifetimes.
func (c *Ctx) finishGets(p *InPort, res []buffer.GetResult, dst []Msg) {
	rec := c.rt.opts.Recorder
	var now time.Duration
	if rec != nil {
		now = c.rt.clk.Now() // the clock feeds only trace events
	}
	var total int64
	for i := range res {
		r := &res[i]
		if rec != nil {
			for _, sk := range r.Skipped {
				rec.Append(trace.Event{Kind: trace.EvSkip, At: now, Item: sk.ID, Node: p.ref.id, Thread: c.thread.id})
			}
			rec.Append(trace.Event{Kind: trace.EvGet, At: now, Item: r.Item.ID, Node: p.ref.id, Thread: c.thread.id})
			c.consumed = append(c.consumed, r.Item.ID)
		}
		total += r.Item.Size
		dst[i] = Msg{TS: r.Item.TS, Payload: r.Item.Payload, Size: r.Item.Size, ID: r.Item.ID}
		*r = buffer.GetResult{}
	}
	// Move the items to the consumer: network hop (if remote) plus local
	// memory traffic. Both are load and belong in the current-STP.
	c.rt.transfer(p.ref.host, c.thread.host, total)
	c.ChargeBus(total)
	c.rt.ctrl.NoteGet(p.conn)
}

// Put produces an item with the given timestamp, payload, and logical
// size into any output port: a PutBatch of one. Producing charges the
// local bus (writing size bytes) and, for a remotely placed buffer, the
// network. The buffer's summary-STP is piggybacked back on the same
// operation — over the wire for remote endpoints. The new item's
// provenance is every item consumed so far in this iteration.
func (c *Ctx) Put(p *OutPort, ts vt.Timestamp, payload any, size int64) error {
	c.putOne[0] = PutSpec{TS: ts, Payload: payload, Size: size}
	_, err := c.PutBatch(p, c.putOne[:])
	c.putOne[0].Payload = nil // the scratch must not pin the payload
	return err
}

// PutSpec describes one item of a batched put: the arguments of one
// Ctx.Put call as data.
type PutSpec struct {
	// TS is the item's virtual timestamp.
	TS vt.Timestamp
	// Payload is the application data.
	Payload any
	// Size is the item's logical size in bytes.
	Size int64
}

// PutBatch produces the specs into an output port as one batched
// operation: one lock acquisition (on lock-based backends), one bus
// charge, one network transfer, and one summary-STP piggyback fold for
// the whole batch, amortizing the per-put overhead that dominates
// high-rate producers. Items are applied in order and the batch stops at
// the first failure; applied reports how many entered the buffer (all
// of them when err is nil or the informational ErrReattached). The
// provenance of every item in the batch is the items consumed so far in
// this iteration, like repeated Ctx.Put calls.
func (c *Ctx) PutBatch(p *OutPort, specs []PutSpec) (applied int, err error) {
	if len(specs) == 0 {
		return 0, nil
	}
	if c.thread.quiesced.Load() {
		// Quiesced for a graceful drain: no new work enters the graph.
		// Rejected before any accounting — the items never existed.
		return 0, ErrDraining
	}
	rec := c.rt.opts.Recorder
	if cap(c.putScratch) < len(specs) {
		c.putScratch = make([]*buffer.Item, len(specs))
		c.putIDScratch = make([]trace.ItemID, len(specs))
	}
	items := c.putScratch[:len(specs)]
	ids := c.putIDScratch[:len(specs)]
	for i := range ids {
		ids[i] = rec.NewItemID()
	}

	// Materializing the batch touches every payload once locally, then
	// the whole batch travels to the buffer's host in one transfer.
	var total int64
	for i := range specs {
		total += specs[i].Size
	}
	c.ChargeBus(total)
	c.rt.transfer(c.thread.host, p.ref.host, total)

	// The carriers come from the runtime's pool in one round: in steady
	// state they are the Items some buffer's reclamation recycled a
	// moment ago, so the put path performs zero allocations.
	c.rt.pool.GetN(items)
	var now time.Duration
	if rec != nil {
		now = c.rt.clk.Now() // the clock feeds only trace events
	}
	for i := range specs {
		it := items[i]
		it.TS, it.Payload, it.Size, it.ID = specs[i].TS, specs[i].Payload, specs[i].Size, ids[i]
		if rec != nil {
			rec.Append(trace.Event{
				Kind: trace.EvAlloc, At: now, Item: it.ID,
				Node: p.ref.id, Thread: c.thread.id, TS: it.TS, Size: it.Size,
				Items: c.consumed,
			})
		}
	}

	applied, blocked, err := p.buf.PutBatch(p.conn, items)
	c.meter.AddBlocked(blocked)
	p.notePut(err)

	// items[:applied] belong to the buffer now — they may already be
	// freed and recycled, so provenance and footprint are read from the
	// specs and the id scratch, never back from the items. One feedback
	// fold covers the whole batch: the summary-STP piggyback is
	// per-operation, not per-item (§3.3.2).
	if applied > 0 {
		c.rt.ctrl.NotePut(p.conn)
		if !p.ref.caps.Remote {
			var appliedBytes int64
			for i := 0; i < applied; i++ {
				appliedBytes += specs[i].Size
			}
			c.rt.addLive(p.ref.host, appliedBytes)
		}
		if rec != nil {
			c.produced = append(c.produced, ids[:applied]...)
		}
	}
	// items[applied:] never entered the buffer (this includes
	// ErrDegraded: a retry budget exhausted against an unreachable peer
	// drops the item): their storage is accounted as immediately
	// reclaimed and the carriers recycled — ownership only transfers
	// when a put takes effect.
	if applied < len(items) {
		if rec != nil {
			now := c.rt.clk.Now()
			for i := applied; i < len(items); i++ {
				rec.Append(trace.Event{Kind: trace.EvFree, At: now, Item: ids[i], Node: p.ref.id})
			}
		}
		c.rt.pool.RecycleN(items[applied:])
	}
	for i := range items {
		items[i] = nil // drop the references; the scratch persists
	}
	if err != nil && !errors.Is(err, buffer.ErrReattached) {
		return applied, translateErr(err)
	}
	return applied, err
}

// GetBatch consumes up to len(dst) items from an input port as one
// batched operation, blocking only until the first is available. It
// returns the number filled (≥ 1 when err is nil) with per-item
// semantics identical to Get — each item is traced and counted as
// consumed — but the lock acquisition, the bus and network charges, the
// summary-STP piggyback, and the metrics updates are amortized over the
// batch. len(dst) == 0 returns (0, nil) without blocking.
func (c *Ctx) GetBatch(p *InPort, dst []Msg) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if c.thread.retiring.Load() {
		return 0, ErrDraining
	}
	if cap(c.getScratch) < len(dst) {
		c.getScratch = make([]buffer.GetResult, len(dst))
	}
	res := c.getScratch[:len(dst)]
	n, err := p.buf.GetBatch(p.conn, res)
	var blocked time.Duration
	if n > 0 {
		blocked = res[0].Blocked
	}
	c.meter.AddBlocked(blocked)
	p.noteGet(n, blocked, err)
	if err != nil && !errors.Is(err, buffer.ErrReattached) {
		return 0, translateErr(err)
	}
	c.finishGets(p, res[:n], dst)
	return n, err
}

// ShouldProduce reports whether work toward putting timestamp ts into
// the output is still worthwhile: false when every consumer of the
// target buffer has already moved past ts (the item would be dead on
// arrival). This is the paper's §3.2 upstream computation elimination
// using local virtual-time knowledge; backends whose items are never
// skipped (FIFO queues) always report true. Call it before the expensive
// compute, not after.
func (c *Ctx) ShouldProduce(p *OutPort, ts vt.Timestamp) bool {
	return !p.buf.WouldBeDead(ts)
}

// Emit records one pipeline output: the items consumed so far in this
// iteration reached the end of the pipeline (the tracker's GUI displaying
// a frame). Sink threads call it once per successful iteration.
func (c *Ctx) Emit() {
	if rec := c.rt.opts.Recorder; rec != nil {
		rec.Append(trace.Event{
			Kind: trace.EvEmit, At: c.rt.clk.Now(), Thread: c.thread.id,
			Items: c.consumed,
		})
	}
	c.emitted++
}

// Sync is the paper's periodicity_sync(): every thread calls it at the
// end of each loop iteration. It measures the iteration's current-STP
// (blocking excluded), feeds it to the ARU controller, records the
// iteration trace event, and — for source threads — paces the loop to the
// thread's summary-STP, which is precisely how ARU throttles production.
func (c *Ctx) Sync() {
	// One clock read ends this iteration, beats the heart, stamps the
	// trace event and — unless pacing sleeps — begins the next iteration.
	now := c.rt.clk.Now()
	fullElapsed := c.meter.Elapsed(now)
	current, busy, blocked := c.meter.EndIteration(now)

	// Heartbeat for the stall watchdog: one atomic store per iteration.
	c.thread.lastBeat.Store(int64(now))

	// Re-fold wire-backed output summaries every iteration. A remote
	// buffer's summary-STP decays with age (graceful degradation), but
	// the ordinary piggyback fold only runs on successful puts — exactly
	// what stops happening when the peer dies. Refreshing here lets the
	// decayed value (ultimately Unknown) reach this thread's backward
	// vector, so its pacing returns to the local current-STP.
	for _, p := range c.thread.outs {
		if p.ref.caps.Remote {
			c.rt.ctrl.NotePut(p.conn)
		}
	}

	if c.thread.replicaSlot > 0 {
		// A replica's measurement folds into the stage's parallel
		// composition instead of overwriting the primary's.
		c.rt.ctrl.SetReplicaSTP(c.thread.id, c.thread.replicaSlot, current)
	} else {
		c.rt.ctrl.SetCurrentSTP(c.thread.id, current)
	}
	if rec := c.rt.opts.Recorder; rec != nil {
		rec.Append(trace.Event{
			Kind: trace.EvIter, At: now, Thread: c.thread.id,
			Compute: busy, Blocked: blocked,
			Items: c.produced,
		})
	}
	c.consumed = c.consumed[:0]
	c.produced = c.produced[:0]
	c.iters++
	if c.thread.tm.iterations != nil {
		c.thread.tm.iterations.Inc()
	}

	if c.thread.isSource && !c.Stopped() {
		// TargetPeriod is the thread's summary-STP under raw propagation,
		// or the estimator stage's damped target when one is plugged in
		// (Policy.WithEstimator) — the single actuation point of the
		// control loop either way.
		target := c.rt.ctrl.TargetPeriod(c.thread.id)
		if slept := c.throttle.Pace(target, fullElapsed); slept > 0 {
			now = c.rt.clk.Now()
			if c.thread.tm.throttleSleep != nil {
				c.thread.tm.throttleSleep.AddDuration(slept)
			}
		}
	}
	c.meter.BeginIteration(now)
}
