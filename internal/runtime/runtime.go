// Package runtime is the Stampede-style streaming runtime the paper's
// experiments run on: it binds the task graph (package graph), timestamped
// buffers (package buffer and its backends channel, queue, and remote),
// garbage collection (package gc), the ARU feedback controller (package
// core), the simulated cluster substrate (package transport), and the
// measurement infrastructure (package trace) behind one programming
// surface.
//
// An application is built in two phases. First the task graph is declared:
// AddThread / AddChannel / AddQueue / AddRemoteChannel create nodes, and
// Thread.Input / Thread.Output wire connections (mirroring Stampede's
// spd_chan_alloc and attach calls, where the ARU dependency parameter also
// lives). Then Start materializes every buffer endpoint through the
// backend registry, spawns one goroutine per thread, and the declared body
// runs a loop of get → compute → put → Sync, where Sync is the paper's
// periodicity_sync(): it closes the iteration, measures the current-STP,
// feeds the ARU controller, and paces source threads to their summary-STP.
package runtime

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/channel"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/queue"
	_ "repro/internal/ring" // registers the "ring" backend for auto-upgrade and AddRing
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options configures a Runtime.
type Options struct {
	// Clock drives all timing; nil means a real clock.
	Clock clock.Clock
	// Cluster is the simulated machine room; nil means a single host
	// with no bus accounting.
	Cluster *transport.Cluster
	// Collector is the GC strategy shared by all channels; nil means
	// DGC, the paper's configuration.
	Collector gc.Collector
	// ARU selects the feedback policy (off / min / max / custom).
	ARU core.Policy
	// Recorder receives trace events; nil disables tracing.
	Recorder *trace.Recorder
	// PressureBytes, when positive, enables the memory-pressure model:
	// every bus charge on a host is scaled by
	// 1 + liveBytes(host)/PressureBytes, so hosts drowning in buffered
	// items pay more per byte moved. Zero disables the model.
	PressureBytes int64
	// StallTTL, when positive, enables the stall watchdog: a running
	// thread whose heartbeat (stamped by each Ctx.Sync) is older than
	// the TTL is flagged stalled in Health and WriteStatus. Per-thread
	// WithStallTTL overrides the runtime-wide value.
	StallTTL time.Duration
	// OnStall, if non-nil, is called once per stall episode with the
	// thread's name and heartbeat age. It runs on the runtime's
	// control loop, ahead of the ControlLoops duties; keep it fast.
	OnStall func(thread string, age time.Duration)
	// Metrics, when non-nil, enables the live metrics registry: the
	// controller, buffer, remote, and supervision layers register their
	// instruments against it at Start and each enabled event costs O(1)
	// atomic operations. Nil (the default) disables metrics entirely —
	// the hot paths pay one predictable branch per event and keep their
	// allocation pins (put = 1, get = 0).
	Metrics *metrics.Registry
	// MetricsAddr, when non-empty, serves the observability HTTP
	// endpoint on that address (":0" for an ephemeral port, reported by
	// Runtime.MetricsAddr): GET /metrics (Prometheus text),
	// /metrics.json, /status (WriteStatus), /health (JSON). Setting it
	// implies metrics: New creates a registry when Metrics is nil.
	MetricsAddr string
	// ControlLoops are periodic control duties run by the runtime's one
	// control loop, after the stall watchdog's sweep and in slice order
	// at any instant where several are due. The loop is a participant
	// Start spawns when the watchdog or some duty is active; it runs
	// until Stop and is joined by Wait. The elastic scheduler
	// (internal/sched, installed via the facade's WithElastic) plugs in
	// through this hook; the runtime core stays policy-free. Empty (the
	// default) adds nothing.
	ControlLoops []ControlLoop
}

// ControlLoop builds one periodic duty of the runtime's control loop
// (Options.ControlLoops). The runtime calls it once, on the loop's
// first turn, and then runs step once every period until Stop; a
// non-positive period or a nil step drops the duty. The step may call
// any concurrency-safe Runtime method — Snapshot for sensing,
// SpawnReplica and RetireReplica for actuation.
type ControlLoop func(rt *Runtime) (every time.Duration, step func())

// Runtime is one Stampede application instance.
type Runtime struct {
	opts Options
	clk  clock.Clock
	g    *graph.Graph

	mu      sync.Mutex
	started bool
	stopped bool
	threads []*Thread

	// buffers holds every materialized endpoint, keyed by node;
	// operations dispatch through the buffer.Buffer interface — the
	// runtime has no per-backend code paths.
	buffers map[graph.NodeID]buffer.Buffer

	// refs are the endpoint descriptors indexed at declaration time so
	// Start materializes buffers with O(1) lookups instead of rescanning
	// every thread's ports per node.
	refs map[graph.NodeID]*BufferRef

	// pool recycles buffer.Item allocations across every endpoint in the
	// runtime: an Item freed by one buffer's reclamation is the Item the
	// next Ctx.Put reuses, so the steady-state put path allocates nothing.
	pool *buffer.ItemPool

	ctrl *core.Controller

	// hostLive tracks live buffered bytes per host for the
	// memory-pressure model.
	hostLive []atomic.Int64

	wg sync.WaitGroup

	// failures collects every permanent thread failure (no cap, no
	// drops); Wait joins and reports them. stopCh is closed by Stop so
	// the control loop terminates.
	failMu   sync.Mutex
	failures []error
	waitOnce sync.Once
	waitErr  error
	stopCh   chan struct{}

	// Graceful-drain state (see drain.go). draining is read by the
	// supervisor (no restarts during drain) and the stall watchdog
	// (threads flushing a drain are not stalls); drainMu serializes
	// Drain calls and guards the cached report.
	draining    atomic.Bool
	drainMu     sync.Mutex
	drainDone   bool
	drainReport DrainReport
	mDrainDur   *metrics.Histogram
	mDraining   *metrics.Gauge

	// Live-metrics state: the node/buffer instrument maps are resolved at
	// Start (immutable afterwards; read lock-free by publish), while
	// threadByName also admits elastic replicas after Start and is
	// guarded by instMu. httpLn/httpSrv are the opt-in observability HTTP
	// server.
	nodeInst     map[graph.NodeID]*nodeInstruments
	bufInst      map[graph.NodeID]*bufferInstruments
	instMu       sync.Mutex
	threadByName map[string]*Thread
	httpLn       net.Listener
	httpSrv      *http.Server

	// Elastic replication state (see replica.go): live replicas and the
	// monotone slot sequence, both keyed by the stage's node id. Guarded
	// by replMu; when both locks are needed the order is rt.mu → replMu.
	replMu   sync.Mutex
	replicas map[graph.NodeID][]*Thread
	replSeq  map[graph.NodeID]int
}

// New creates an empty runtime.
func New(opts Options) *Runtime {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.Collector == nil {
		opts.Collector = gc.NewDeadTimestamp()
	}
	if opts.MetricsAddr != "" && opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	rt := &Runtime{
		opts:    opts,
		clk:     opts.Clock,
		g:       graph.New(),
		buffers: make(map[graph.NodeID]buffer.Buffer),
		refs:    make(map[graph.NodeID]*BufferRef),
		pool:    buffer.NewItemPool(),
		stopCh:  make(chan struct{}),
	}
	hosts := 1
	if opts.Cluster != nil {
		hosts = opts.Cluster.Hosts()
	}
	rt.hostLive = make([]atomic.Int64, hosts)
	return rt
}

// addLive adjusts a host's live buffered byte count.
func (rt *Runtime) addLive(host int, delta int64) {
	if host >= 0 && host < len(rt.hostLive) {
		rt.hostLive[host].Add(delta)
	}
}

// pressureFactor returns the memory-pressure cost multiplier for a host.
func (rt *Runtime) pressureFactor(host int) float64 {
	if rt.opts.PressureBytes <= 0 || host < 0 || host >= len(rt.hostLive) {
		return 1
	}
	return 1 + float64(rt.hostLive[host].Load())/float64(rt.opts.PressureBytes)
}

// Clock returns the runtime's clock.
func (rt *Runtime) Clock() clock.Clock { return rt.clk }

// Graph returns the application task graph.
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Controller returns the ARU controller; nil before Start.
func (rt *Runtime) Controller() *core.Controller { return rt.ctrl }

// Recorder returns the trace recorder (possibly nil).
func (rt *Runtime) Recorder() *trace.Recorder { return rt.opts.Recorder }

// Metrics returns the live metrics registry (nil when metrics are
// disabled).
func (rt *Runtime) Metrics() *metrics.Registry { return rt.opts.Metrics }

// hostCount returns the number of hosts available for placement.
func (rt *Runtime) hostCount() int {
	if rt.opts.Cluster == nil {
		return 1
	}
	return rt.opts.Cluster.Hosts()
}

// bus returns host h's bus (nil without a cluster).
func (rt *Runtime) bus(h int) *transport.Bus {
	if rt.opts.Cluster == nil {
		return nil
	}
	return rt.opts.Cluster.Bus(transport.HostID(h))
}

// transfer charges the network for moving size bytes between hosts.
func (rt *Runtime) transfer(from, to int, size int64) {
	if rt.opts.Cluster == nil || from == to {
		return
	}
	rt.opts.Cluster.Network().Transfer(transport.HostID(from), transport.HostID(to), size)
}

func (rt *Runtime) checkBuilding(what string) error {
	if rt.started {
		return fmt.Errorf("runtime: cannot %s after Start", what)
	}
	return nil
}

func (rt *Runtime) checkHost(host int) error {
	if host < 0 || host >= rt.hostCount() {
		return fmt.Errorf("runtime: host %d out of range [0,%d)", host, rt.hostCount())
	}
	return nil
}

// addBuffer declares a buffer node backed by the named registered
// backend. Backend capabilities are captured on the ref immediately, so
// wiring-time checks (windowed input on a FIFO queue, say) fail before
// Start.
func (rt *Runtime) addBuffer(kind graph.Kind, backend, name string, host int, opts []BufferOption) (*BufferRef, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.checkBuilding("add " + backend); err != nil {
		return nil, err
	}
	if err := rt.checkHost(host); err != nil {
		return nil, err
	}
	be, ok := buffer.Lookup(backend)
	if !ok {
		return nil, fmt.Errorf("runtime: unknown buffer backend %q (registered: %v)", backend, buffer.Names())
	}
	id, err := rt.g.AddNode(kind, name, host)
	if err != nil {
		return nil, err
	}
	ref := &BufferRef{rt: rt, id: id, name: name, host: host, backend: backend, caps: be.Caps}
	for _, o := range opts {
		o(ref)
	}
	rt.refs[id] = ref
	return ref, nil
}

// AddChannel declares a channel placed on the given host. Stampede places
// channels on the host of their producer (§5); the caller is responsible
// for following that convention (helpers in package bench do).
func (rt *Runtime) AddChannel(name string, host int, copts ...ChannelOption) (*ChannelRef, error) {
	return rt.addBuffer(graph.KindChannel, "channel", name, host, copts)
}

// MustAddChannel is AddChannel that panics on error.
func (rt *Runtime) MustAddChannel(name string, host int, copts ...ChannelOption) *ChannelRef {
	ref, err := rt.AddChannel(name, host, copts...)
	if err != nil {
		panic(err)
	}
	return ref
}

// AddQueue declares a queue placed on the given host.
func (rt *Runtime) AddQueue(name string, host int, qopts ...QueueOption) (*QueueRef, error) {
	return rt.addBuffer(graph.KindQueue, "queue", name, host, qopts)
}

// MustAddQueue is AddQueue that panics on error.
func (rt *Runtime) MustAddQueue(name string, host int, qopts ...QueueOption) *QueueRef {
	ref, err := rt.AddQueue(name, host, qopts...)
	if err != nil {
		panic(err)
	}
	return ref
}

// AddRing declares a lock-free ring buffer placed on the given host: the
// high-throughput FIFO backend. A positive capacity is required
// (WithQueueCapacity; rounded up to a power of two). Most applications
// never call this: Start upgrades eligible bounded queues to rings
// automatically.
func (rt *Runtime) AddRing(name string, host int, qopts ...QueueOption) (*QueueRef, error) {
	return rt.addBuffer(graph.KindQueue, "ring", name, host, qopts)
}

// MustAddRing is AddRing that panics on error.
func (rt *Runtime) MustAddRing(name string, host int, qopts ...QueueOption) *QueueRef {
	ref, err := rt.AddRing(name, host, qopts...)
	if err != nil {
		panic(err)
	}
	return ref
}

// AddRemoteChannel declares a channel endpoint whose storage is a
// channel hosted by a remote server (package remote) at addr, mounted
// into the task graph through the "remote" backend: puts and gets cross
// real TCP, and summary-STP feedback rides the wire in both directions.
// The hosted channel's name defaults to this endpoint's name
// (WithRemoteName overrides). The process must import the remote backend
// package for the registration to exist; a real clock is required
// (enforced at Start).
func (rt *Runtime) AddRemoteChannel(name string, host int, addr string, copts ...ChannelOption) (*ChannelRef, error) {
	ref, err := rt.addBuffer(graph.KindChannel, "remote", name, host, copts)
	if err != nil {
		return nil, err
	}
	ref.addr = addr
	return ref, nil
}

// MustAddRemoteChannel is AddRemoteChannel that panics on error.
func (rt *Runtime) MustAddRemoteChannel(name string, host int, addr string, copts ...ChannelOption) *ChannelRef {
	ref, err := rt.AddRemoteChannel(name, host, addr, copts...)
	if err != nil {
		panic(err)
	}
	return ref
}

// Body is a thread's task loop. It runs on its own goroutine after Start
// and should return nil when ctx.Stopped() becomes true or a get/put
// reports shutdown (errors.Is(err, ErrShutdown)).
type Body func(ctx *Ctx) error

// AddThread declares a computation thread on the given host. Options
// configure its supervision: WithRestartOnFailure enables restarts on a
// backoff schedule, WithStallTTL a per-thread watchdog TTL. Without
// options the thread is supervised with RestartNever semantics — a
// panic or non-shutdown error return is a permanent failure (contained,
// propagated to peers, and reported by Wait; never a process crash).
func (rt *Runtime) AddThread(name string, host int, body Body, topts ...ThreadOption) (*Thread, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.checkBuilding("add thread"); err != nil {
		return nil, err
	}
	if err := rt.checkHost(host); err != nil {
		return nil, err
	}
	if body == nil {
		return nil, fmt.Errorf("runtime: thread %q has nil body", name)
	}
	id, err := rt.g.AddNode(graph.KindThread, name, host)
	if err != nil {
		return nil, err
	}
	th := &Thread{rt: rt, id: id, name: name, host: host, body: body}
	for _, o := range topts {
		o(th)
	}
	rt.threads = append(rt.threads, th)
	return th, nil
}

// MustAddThread is AddThread that panics on error.
func (rt *Runtime) MustAddThread(name string, host int, body Body, topts ...ThreadOption) *Thread {
	th, err := rt.AddThread(name, host, body, topts...)
	if err != nil {
		panic(err)
	}
	return th
}

// runtimeFeedback is the summary-STP exchange hook handed to wire-backed
// backends: it reads the consuming thread's summary for outgoing gets and
// delivers the remote buffer's summary into the controller.
type runtimeFeedback struct {
	rt   *Runtime
	node graph.NodeID
}

func (f *runtimeFeedback) ConsumerSummary(conn graph.ConnID) core.STP {
	if f.rt.ctrl == nil {
		return core.Unknown
	}
	return f.rt.ctrl.ConsumerSummary(conn)
}

func (f *runtimeFeedback) ObserveBufferSummary(s core.STP) {
	if f.rt.ctrl == nil {
		return
	}
	f.rt.ctrl.SetRemoteSummary(f.node, s)
}

// ringEligibleLocked reports whether a declared queue can be materialized
// as the lock-free ring without changing observable semantics: bounded
// with a power-of-two capacity (the ring rounds sizes up, which would
// loosen a non-power-of-two bound's blocking behaviour), exactly one
// consumer connection with the default window (the ring is SPSC/MPSC),
// and the ring backend registered.
func (rt *Runtime) ringEligibleLocked(n *graph.Node, ref *BufferRef, windows map[graph.ConnID]int) bool {
	if ref.backend != "queue" {
		return false
	}
	if ref.capacity <= 0 || ref.capacity&(ref.capacity-1) != 0 {
		return false
	}
	if len(n.Out) != 1 || windows[n.Out[0]] > 1 {
		return false
	}
	_, ok := buffer.Lookup("ring")
	return ok
}

// materializeLocked builds the endpoint for one buffer node through the
// backend registry and attaches its producer and consumer connections.
func (rt *Runtime) materializeLocked(n *graph.Node, windows map[graph.ConnID]int) error {
	ref := rt.refs[n.ID]
	if ref == nil {
		return fmt.Errorf("runtime: buffer node %q has no endpoint descriptor", n.Name)
	}
	if ref.caps.Remote {
		if _, isReg := rt.clk.(clock.Registrar); isReg {
			return fmt.Errorf("runtime: remote endpoint %q requires a real clock: a discrete-event clock cannot observe network blocking", n.Name)
		}
		// The wire is authoritative for this node's summary-STP; the
		// local fold must not overwrite it. Staleness decay makes that
		// authority expire: past the TTL without fresh feedback the
		// summary fades back to Unknown, so producers stop pacing to a
		// dead peer.
		ttl := ref.remote.StaleTTL
		if ttl == 0 {
			ttl = core.DefaultStaleTTL
		} else if ttl < 0 {
			ttl = 0
		}
		rt.ctrl.MarkRemote(n.ID, rt.clk, ttl)
	}
	if rt.ringEligibleLocked(n, ref, windows) {
		// Upgrade the bounded queue to the lock-free ring: same FIFO
		// discipline and capability surface, an order of magnitude more
		// throughput. The ref records the materialized backend so status
		// output and tests can observe the upgrade.
		ref.backend = "ring"
	}
	host, node := n.Host, n.ID
	b, err := buffer.New(ref.backend, buffer.Config{
		Name:       n.Name,
		Tenant:     ref.tenant,
		Node:       node,
		Clock:      rt.clk,
		Collector:  rt.opts.Collector,
		Capacity:   ref.capacity,
		Addr:       ref.addr,
		RemoteName: ref.remoteName,
		Remote:     ref.remote,
		Metrics:    rt.opts.Metrics,
		Pool:       rt.pool,
		Feedback:   &runtimeFeedback{rt: rt, node: node},
		OnFree: func(it *buffer.Item) {
			rt.addLive(host, -it.Size)
			if rec := rt.opts.Recorder; rec != nil {
				// The clock feeds only the trace event.
				rec.Append(trace.Event{Kind: trace.EvFree, At: rt.clk.Now(), Item: it.ID, Node: node})
			}
		},
	})
	if err != nil {
		return fmt.Errorf("runtime: materialize %q (backend %q): %w", n.Name, ref.backend, err)
	}
	if _, ok := b.(buffer.AtGetter); ref.caps.GetAt && !ok {
		// Outside code registers backends too: a false GetAt claim is
		// a wiring error here, not a failed type assertion in Ctx.GetAt.
		return fmt.Errorf("%w: backend %q of %q declares GetAt but does not implement buffer.AtGetter", ErrPortKind, ref.backend, n.Name)
	}
	for _, cid := range n.In {
		if err := b.AttachProducer(cid); err != nil {
			return fmt.Errorf("runtime: attach producer to %q: %w", n.Name, err)
		}
	}
	for _, cid := range n.Out {
		w := windows[cid]
		if w < 1 {
			w = 1
		}
		if err := b.AttachConsumer(cid, w); err != nil {
			return fmt.Errorf("runtime: attach consumer to %q: %w", n.Name, err)
		}
	}
	rt.buffers[n.ID] = b
	return nil
}

// Start validates the graph, materializes every buffer endpoint through
// the backend registry, builds the ARU controller, and spawns every
// thread goroutine.
func (rt *Runtime) Start() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started {
		return errors.New("runtime: already started")
	}
	if err := rt.g.Validate(); err != nil {
		return err
	}

	// The controller shares the runtime clock so the estimator stage (when
	// plugged in) timestamps observations in manual/virtual time under
	// tests and simulations.
	rt.ctrl = core.NewControllerOn(rt.g, rt.opts.ARU, rt.clk)

	// Sliding-window widths per consumer connection.
	windows := map[graph.ConnID]int{}
	for _, th := range rt.threads {
		for _, p := range th.ins {
			if p.window > 1 {
				windows[p.conn] = p.window
			}
		}
	}

	// Materialize buffers.
	var mErr error
	rt.g.Nodes(func(n *graph.Node) {
		if mErr != nil || n.Kind == graph.KindThread {
			return
		}
		mErr = rt.materializeLocked(n, windows)
	})
	if mErr == nil && rt.opts.MetricsAddr != "" {
		mErr = rt.startMetricsServerLocked()
	}
	if mErr != nil {
		// Unwind endpoints already materialized (remote attaches hold
		// TCP connections).
		for id, b := range rt.buffers {
			b.Close()
			delete(rt.buffers, id)
		}
		return mErr
	}
	rt.registerInstrumentsLocked()

	rt.started = true
	for _, th := range rt.threads {
		th.prepare()
		rt.spawn(th.supervise)
	}
	if every := rt.watchdogEvery(); every > 0 || len(rt.opts.ControlLoops) > 0 {
		rt.spawn(func() { rt.control(every) })
	}
	return nil
}

// spawn starts f on a goroutine that Wait waits for. On a scheduling
// clock (clock.Registrar) the goroutine is a participant and waits its
// turn in the clock's run queue.
func (rt *Runtime) spawn(f func()) {
	rt.wg.Add(1)
	g := func() {
		defer rt.wg.Done()
		f()
	}
	if reg, ok := rt.clk.(clock.Registrar); ok {
		reg.Go(g)
	} else {
		go g()
	}
}

// Stop closes every buffer, which unblocks all waiting threads; their
// bodies observe ErrShutdown and return. Remaining buffered items are
// drained so their storage is accounted as reclaimed. Stop is idempotent.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if !rt.started || rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	close(rt.stopCh)
	buffers := make([]buffer.Buffer, 0, len(rt.buffers))
	for _, b := range rt.buffers {
		buffers = append(buffers, b)
	}
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()

	for _, th := range threads {
		th.requestStop()
	}
	for _, b := range buffers {
		b.Close()
	}
	for _, b := range buffers {
		b.Drain()
	}
	rt.closeMetricsServer()
}

// Stopped reports whether Stop has been called.
func (rt *Runtime) Stopped() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stopped
}

// Wait blocks until every supervision goroutine has returned and
// reports every permanent thread failure, joined. It is idempotent:
// repeated calls block the same way and return the same error.
func (rt *Runtime) Wait() error {
	rt.wg.Wait()
	rt.waitOnce.Do(func() {
		rt.failMu.Lock()
		rt.waitErr = errors.Join(rt.failures...)
		rt.failMu.Unlock()
	})
	return rt.waitErr
}

// RunFor starts the runtime (if not yet started), lets it execute for d of
// runtime-clock time, stops it, and waits for quiescence. On a scheduling
// clock the caller is a participant from before Start until after Stop,
// so no thread runs at or past d before the buffers close.
func (rt *Runtime) RunFor(d time.Duration) error {
	reg, hasReg := rt.clk.(clock.Registrar)
	if hasReg {
		reg.Add(1)
	}
	rt.mu.Lock()
	started := rt.started
	rt.mu.Unlock()
	var err error
	if !started {
		err = rt.Start()
	}
	if err == nil {
		rt.clk.Sleep(d)
		rt.Stop()
	}
	if hasReg {
		reg.Add(-1)
	}
	if err != nil {
		return err
	}
	return rt.Wait()
}

// Buffer returns the materialized endpoint for a ref (post-Start).
func (rt *Runtime) Buffer(ref *BufferRef) buffer.Buffer {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.buffers[ref.id]
}

// Channel returns the materialized channel for a ref (post-Start), or nil
// if the ref's backend is not the in-process channel.
func (rt *Runtime) Channel(ref *ChannelRef) *channel.Channel {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ch, _ := rt.buffers[ref.id].(*channel.Channel)
	return ch
}

// Queue returns the materialized queue for a ref (post-Start), or nil if
// the ref's backend is not the in-process queue — including a declared
// queue that Start upgraded to the ring backend. Code that must work
// across FIFO backends should use Buffer and the interface surface.
func (rt *Runtime) Queue(ref *QueueRef) *queue.Queue {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	q, _ := rt.buffers[ref.id].(*queue.Queue)
	return q
}

// WriteStatus renders a point-in-time view of the running application:
// the ARU controller's per-node state (current-STP, compressed
// backwardSTP, summary), per-buffer occupancy, and the thread
// supervision table. It answers the operational question "why is this
// stage running at this period?".
//
// Everything is rendered from one Runtime.Snapshot, so the text view
// can never disagree with the JSON and Prometheus outputs, the buffers
// are queried without rt.mu held (no lock nesting against the buffers'
// own locks), and column widths are computed from the snapshot so long
// node and thread names never truncate or misalign.
func (rt *Runtime) WriteStatus(w io.Writer) {
	rt.writeStatus(w, rt.Snapshot())
}

// fmtSTP renders an STP cell ("-" for Unknown).
func fmtSTP(s core.STP) string {
	if !s.Known() {
		return "-"
	}
	return s.Duration().Round(time.Millisecond).String()
}

// fmtVec renders a backwardSTP vector cell.
func fmtVec(vec []core.STP) string {
	out := "["
	for i, s := range vec {
		if i > 0 {
			out += " "
		}
		out += fmtSTP(s)
	}
	return out + "]"
}

// nameColumn returns the width of a left-aligned name column: the
// longest of the header and every name, so no name is ever truncated.
func nameColumn(header string, names []string) int {
	w := len(header)
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	return w
}

// writeStatus renders a snapshot as the status text.
func (rt *Runtime) writeStatus(w io.Writer, snap Snapshot) {
	if snap.ARUEnabled {
		names := make([]string, len(snap.Nodes))
		for i, ns := range snap.Nodes {
			names[i] = ns.Name
		}
		nw := nameColumn("node", names)
		fmt.Fprintln(w, "ARU controller state:")
		fmt.Fprintf(w, "%-*s %-8s %-5s %12s %12s %12s  %s\n",
			nw, "node", "kind", "op", "current", "compressed", "summary", "backwardSTP")
		for _, ns := range snap.Nodes {
			extra := ""
			if ns.Degraded {
				extra = "  (degraded)"
			}
			if es := ns.Estimator; es != nil {
				extra += fmt.Sprintf("  %s[target=%s est=%s trend=%s phase=%s backoffs=%d speedups=%d]",
					es.Name, fmtSTP(es.Target), fmtSTP(es.Estimate), es.Trend, es.Phase, es.Backoffs, es.Speedups)
			}
			fmt.Fprintf(w, "%-*s %-8s %-5s %12s %12s %12s  %s%s\n",
				nw, ns.Name, ns.Kind.String(), ns.Compressor,
				fmtSTP(ns.Current), fmtSTP(ns.Compressed), fmtSTP(ns.Summary),
				fmtVec(ns.Vector), extra)
		}
		fmt.Fprintln(w)
	}

	bnames := make([]string, len(snap.Buffers))
	for i, b := range snap.Buffers {
		bnames[i] = b.Name
	}
	bw := nameColumn("buffer", bnames)
	withHW := rt.opts.Metrics != nil
	if withHW {
		fmt.Fprintf(w, "%-*s %8s %12s %8s %8s %9s %12s\n", bw, "buffer", "items", "bytes", "puts", "frees", "hw-items", "hw-bytes")
	} else {
		fmt.Fprintf(w, "%-*s %8s %12s %8s %8s\n", bw, "buffer", "items", "bytes", "puts", "frees")
	}
	for _, b := range snap.Buffers {
		if withHW {
			fmt.Fprintf(w, "%-*s %8d %12d %8d %8d %9d %12d\n",
				bw, b.Name, b.Items, b.Bytes, b.Puts, b.Frees, b.HighWaterItems, b.HighWaterBytes)
		} else {
			fmt.Fprintf(w, "%-*s %8d %12d %8d %8d\n", bw, b.Name, b.Items, b.Bytes, b.Puts, b.Frees)
		}
	}

	tnames := make([]string, len(snap.Threads))
	for i, th := range snap.Threads {
		tnames[i] = th.Name
	}
	tw := nameColumn("thread", tnames)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-*s %-11s %8s %10s %7s  %s\n", tw, "thread", "state", "restarts", "beat-age", "stalled", "last-failure")
	for _, th := range snap.Threads {
		failure := "-"
		if th.LastFailure != nil {
			failure = th.LastFailure.Error()
		}
		fmt.Fprintf(w, "%-*s %-11s %8d %10s %7v  %s\n",
			tw, th.Name, th.State, th.Restarts, th.HeartbeatAge.Round(time.Millisecond), th.Stalled, failure)
	}

	// Elastic replication: rendered only when some stage is replicated,
	// so the default (non-elastic) status output stays byte-identical.
	if len(snap.Replicas) > 0 {
		stages := make([]string, 0, len(snap.Replicas))
		for s := range snap.Replicas {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		sw := nameColumn("stage", stages)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-*s %9s\n", sw, "stage", "replicas")
		for _, s := range stages {
			fmt.Fprintf(w, "%-*s %9d\n", sw, s, snap.Replicas[s])
		}
	}
}

// TotalOccupancy sums live items and bytes over every buffer endpoint.
func (rt *Runtime) TotalOccupancy() (items int, bytes int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, b := range rt.buffers {
		st := b.Stats()
		items += st.Items
		bytes += st.Bytes
	}
	return items, bytes
}
