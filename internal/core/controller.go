package core

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
)

// BackwardVec is the backwardSTP vector of one task-graph node: one slot
// per output connection, holding the (optionally filtered) summary-STP
// most recently received from that downstream node. It is safe for
// concurrent use.
//
// The vector maintains its compressed (folded) value incrementally: for
// the foldable min/max operators an Update adjusts the cached fold in
// O(1) (a full re-fold is deferred only when the current extremum is
// raised/lowered away, and on RemoveSlot); custom compressors mark the
// cache dirty and re-fold lazily through a reused scratch slice. Either
// way the per-piggyback path (NoteGet/NotePut) performs zero allocations
// and a single lock hop on the vector — the pre-optimization design took
// two vector locks and built a fresh snapshot slice on every piggyback.
//
// The cache is keyed by the compression operator's Name(): callers that
// alternate between differently named compressors on one vector (none
// do) pay a re-fold per switch. Compressors must be deterministic pure
// functions of the vector, which the Compressor contract already
// requires.
type BackwardVec struct {
	mu      sync.Mutex
	order   []graph.ConnID
	slots   map[graph.ConnID]STP
	filters map[graph.ConnID]Filter

	comp       Compressor // operator the cached fold belongs to (nil: none yet)
	compName   string
	compIsMin  bool
	compIsMax  bool
	compressed STP
	dirty      bool
	scratch    []STP // reused by re-folds under custom compressors
}

// NewBackwardVec creates a vector with one Unknown slot per connection.
// newFilter may be nil for unfiltered feedback.
func NewBackwardVec(conns []graph.ConnID, newFilter FilterFactory) *BackwardVec {
	v := &BackwardVec{
		order:   append([]graph.ConnID(nil), conns...),
		slots:   make(map[graph.ConnID]STP, len(conns)),
		filters: make(map[graph.ConnID]Filter, len(conns)),
	}
	for _, c := range conns {
		v.slots[c] = Unknown
		if newFilter != nil {
			v.filters[c] = newFilter()
		}
	}
	return v
}

// AddSlot registers an additional output connection after construction,
// with its own filter instance. It is used where connections attach
// dynamically (remote consumers joining a channel server). Adding an
// existing slot is a no-op.
func (v *BackwardVec) AddSlot(conn graph.ConnID, newFilter FilterFactory) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.slots[conn]; ok {
		return
	}
	v.order = append(v.order, conn)
	v.slots[conn] = Unknown
	if newFilter != nil {
		v.filters[conn] = newFilter()
	}
}

// RemoveSlot drops a connection from the vector (consumer detach), so its
// stale feedback no longer influences compression. The cached fold is
// fully recomputed on the next read — removal can promote any slot to
// the new extremum.
func (v *BackwardVec) RemoveSlot(conn graph.ConnID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.slots[conn]; !ok {
		return
	}
	delete(v.slots, conn)
	delete(v.filters, conn)
	for i, c := range v.order {
		if c == conn {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
	v.dirty = true
}

// bindLocked points the fold cache at compressor c (identified by name).
func (v *BackwardVec) bindLocked(c Compressor) {
	if v.comp != nil && v.compName == c.Name() {
		return
	}
	v.comp = c
	v.compName = c.Name()
	_, v.compIsMin = c.(minCompressor)
	_, v.compIsMax = c.(maxCompressor)
	v.dirty = true
}

// foldUpdateLocked folds one slot transition old→s into the cached
// compressed value, marking the cache dirty when the fold cannot be
// maintained in O(1) (the previous extremum moved away, or the operator
// is not min/max).
func (v *BackwardVec) foldUpdateLocked(old, s STP) {
	if v.comp == nil || v.dirty {
		v.dirty = true
		return
	}
	switch {
	case v.compIsMin:
		if s.Known() && (!v.compressed.Known() || s <= v.compressed) {
			v.compressed = s
		} else if old.Known() && old == v.compressed {
			v.dirty = true // the previous minimum was raised or withdrawn
		}
	case v.compIsMax:
		if s.Known() && s >= v.compressed {
			v.compressed = s
		} else if old.Known() && old == v.compressed {
			v.dirty = true // the previous maximum was lowered or withdrawn
		}
	default:
		v.dirty = true
	}
}

// recomputeLocked re-folds the whole vector under the bound compressor.
// Min/max fold directly over the slots; custom operators are fed through
// the reused scratch slice. No allocation in steady state.
func (v *BackwardVec) recomputeLocked() {
	v.dirty = false
	if v.comp == nil {
		v.compressed = Unknown
		return
	}
	if v.compIsMin || v.compIsMax {
		out := Unknown
		for _, c := range v.order {
			s := v.slots[c]
			if v.compIsMin {
				out = MinSTP(out, s)
			} else {
				out = MaxSTP(out, s)
			}
		}
		v.compressed = out
		return
	}
	v.scratch = v.scratch[:0]
	for _, c := range v.order {
		v.scratch = append(v.scratch, v.slots[c])
	}
	v.compressed = v.comp.Compress(v.scratch)
}

// updateLocked applies the filter and stores the slot, folding the
// transition into the cache. It reports whether the slot existed.
func (v *BackwardVec) updateLocked(conn graph.ConnID, s STP) bool {
	old, ok := v.slots[conn]
	if !ok {
		return false
	}
	if f, ok := v.filters[conn]; ok {
		s = f.Apply(s)
	}
	v.slots[conn] = s
	v.foldUpdateLocked(old, s)
	return true
}

// Update stores the summary-STP received on conn, passing it through the
// slot's filter. Updates for connections not in the vector are ignored
// (a detached consumer may still have a feedback message in flight).
func (v *BackwardVec) Update(conn graph.ConnID, s STP) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.updateLocked(conn, s)
}

// Snapshot returns the slot values in connection order.
func (v *BackwardVec) Snapshot() []STP {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]STP, len(v.order))
	for i, c := range v.order {
		out[i] = v.slots[c]
	}
	return out
}

// Compressed folds the vector with the compressor, served from the
// incremental cache whenever it is clean.
func (v *BackwardVec) Compressed(c Compressor) STP {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.bindLocked(c)
	if v.dirty {
		v.recomputeLocked()
	}
	return v.compressed
}

// UpdateAndCompress stores the summary-STP received on conn and returns
// the vector's compressed value under c — the piggyback fast path, one
// lock acquisition and zero allocations.
func (v *BackwardVec) UpdateAndCompress(conn graph.ConnID, s STP, c Compressor) STP {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.bindLocked(c)
	v.updateLocked(conn, s)
	if v.dirty {
		v.recomputeLocked()
	}
	return v.compressed
}

// Policy selects the ARU behaviour for a run.
type Policy struct {
	// Enabled turns the mechanism on. When false, no feedback is
	// propagated and no thread throttles (the paper's "No ARU"
	// baseline).
	Enabled bool
	// Compressor is the default compression operator (Min unless set).
	Compressor Compressor
	// PerNode overrides the compressor for named nodes, the paper's
	// "parameter added to all channel/queue and thread creation APIs"
	// for encoding known data dependencies.
	PerNode map[string]Compressor
	// NewFilter optionally smooths incoming summary-STP values
	// (reproduction extension; nil reproduces the paper).
	NewFilter FilterFactory
	// EstimatorFactory optionally plugs an estimator stage between the
	// compressed feedback and the pacing throttle of every thread node
	// (reproduction extension, DESIGN.md §4h; nil reproduces the paper:
	// threads pace to the raw summary-STP).
	EstimatorFactory EstimatorFactory
}

// WithEstimator returns a copy of the policy with the estimator stage
// plugged in.
func (p Policy) WithEstimator(f EstimatorFactory) Policy {
	p.EstimatorFactory = f
	return p
}

// PolicyOff returns the No-ARU baseline policy.
func PolicyOff() Policy { return Policy{} }

// PolicyMin returns ARU with the default conservative min operator.
func PolicyMin() Policy { return Policy{Enabled: true, Compressor: Min} }

// PolicyMax returns ARU with the aggressive max operator everywhere,
// appropriate for pipelines whose sink dictates overall throughput (the
// tracker's GUI).
func PolicyMax() Policy { return Policy{Enabled: true, Compressor: Max} }

// Name describes the policy for reports.
func (p Policy) Name() string {
	if !p.Enabled {
		return "no-aru"
	}
	c := p.Compressor
	if c == nil {
		c = Min
	}
	return "aru-" + c.Name()
}

// DefaultStaleTTL is the default age past which a remote node's
// summary-STP stops being fully trusted (see NodeState.MarkRemote).
const DefaultStaleTTL = 10 * time.Second

// NodeState holds the ARU state of one task-graph node.
type NodeState struct {
	node *graph.Node
	comp Compressor
	vec  *BackwardVec

	mu      sync.Mutex
	current STP // threads only: effective current-STP (parallel fold when replicated)
	primary STP // threads only: the primary incarnation's own measured current-STP
	// repl holds the live elastic replicas' last measured current-STPs by
	// replica slot. It stays nil until the scheduler registers a replica,
	// so unreplicated pipelines keep the exact pre-elastic fold (current
	// == primary) with no extra work on the Sync path.
	repl    map[int]STP
	summary STP
	remote  bool // summary is externally supplied (wire-backed buffer)

	// Staleness tracking for remote summaries: clk stamps each
	// SetSummary; past staleTTL of silence the stored summary decays
	// linearly to Unknown over a second staleTTL, so feedback from a
	// dead peer stops throttling upstream producers (they return to
	// local current-STP pacing — the safe direction: shedding load on a
	// healthy pipeline wastes capacity, but pacing to a ghost wedges
	// it). staleTTL <= 0 or a nil clk disables decay.
	clk       clock.Clock
	staleTTL  time.Duration
	summaryAt time.Duration // clk reading at the last SetSummary

	// Estimator stage (thread nodes under an estimator-bearing policy
	// only). est is set once at construction and never mutated, so the
	// nil check on the hot path needs no lock; estClk stamps
	// observations and target reads.
	est    Estimator
	estClk clock.Clock
}

// Node returns the underlying graph node.
func (n *NodeState) Node() *graph.Node { return n.node }

// Vec returns the node's backwardSTP vector.
func (n *NodeState) Vec() *BackwardVec { return n.vec }

// Compressor returns the operator the node folds its vector with.
func (n *NodeState) Compressor() Compressor { return n.comp }

// applySummary derives the node's summary-STP per the paper's algorithm:
// threads take max(compressed-backwardSTP, current-STP); buffers take the
// compressed value alone (they generate no current-STP).
func (n *NodeState) applySummary(compressed STP) {
	n.mu.Lock()
	if n.remote {
		// A wire-backed buffer's summary is authoritative on the remote
		// holder; locally folded values must not overwrite it.
		n.mu.Unlock()
		return
	}
	if n.node.Kind == graph.KindThread {
		n.summary = MaxSTP(compressed, n.current)
	} else {
		n.summary = compressed
	}
	n.mu.Unlock()
}

// ReceiveSummary folds a summary-STP received on an output connection and
// refreshes the node's own summary. This is the piggyback hot path: one
// lock hop on the vector (update + cached fold) and one on the node
// state, no allocations, plus one estimator observation when the stage
// is plugged in (a single predictable branch when it is not).
func (n *NodeState) ReceiveSummary(conn graph.ConnID, s STP) {
	compressed := n.vec.UpdateAndCompress(conn, s, n.comp)
	if n.est != nil {
		n.est.Observe(n.estClk.Now(), conn, s, compressed)
	}
	n.applySummary(compressed)
}

// RefreshSummary re-derives the node's summary-STP from its vector's
// current compressed value. Used after out-of-band vector surgery
// (RemoveSlot on a failed consumer) where no piggyback is in flight to
// trigger the re-fold.
func (n *NodeState) RefreshSummary() {
	n.applySummary(n.vec.Compressed(n.comp))
}

// SetCurrentSTP records a thread's newly measured current-STP and
// refreshes the summary. For a replicated stage the measurement lands in
// the primary's slot and the effective current becomes the parallel fold
// over every live incarnation (see foldLocked).
func (n *NodeState) SetCurrentSTP(s STP) {
	n.mu.Lock()
	n.primary = s
	n.current = n.foldLocked()
	n.mu.Unlock()
	n.applySummary(n.vec.Compressed(n.comp))
}

// CurrentSTP returns the thread's last measured current-STP.
func (n *NodeState) CurrentSTP() STP {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.current
}

// Summary returns the node's current summary-STP. For remote nodes with
// staleness tracking, the stored value is decayed by its age: full
// strength through staleTTL, then linearly down to Unknown by 2×staleTTL.
func (n *NodeState) Summary() STP {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.decayedLocked()
}

// Target returns the period the node's thread should pace to: the raw
// summary-STP under raw propagation (the paper's signal), or the
// estimator's damped target when the stage is plugged in. Estimators
// receive the raw summary as fallback so cold or expired estimates
// degrade to exactly the paper's behaviour.
func (n *NodeState) Target() STP {
	s := n.Summary()
	if n.est == nil {
		return s
	}
	return n.est.Target(n.estClk.Now(), s)
}

// Estimator returns the node's estimator stage (nil under raw
// propagation).
func (n *NodeState) Estimator() Estimator { return n.est }

// decayedLocked applies the staleness decay to the stored summary.
func (n *NodeState) decayedLocked() STP {
	s := n.summary
	if !n.remote || n.staleTTL <= 0 || n.clk == nil || !s.Known() {
		return s
	}
	age := n.clk.Now() - n.summaryAt
	if age <= n.staleTTL {
		return s
	}
	if age >= 2*n.staleTTL {
		return Unknown
	}
	// Linear fade over the second TTL. A shrinking period throttles
	// upstream producers less and less until local pacing takes over.
	frac := float64(2*n.staleTTL-age) / float64(n.staleTTL)
	return STP(float64(s) * frac)
}

// MarkRemote declares the node's summary externally supplied: local folds
// stop writing it and SetSummary becomes the only writer. Used for
// wire-backed buffer endpoints, whose authoritative summary-STP lives on
// the remote server and arrives piggybacked on put replies. clk and
// staleTTL enable staleness decay (see NodeState docs); a nil clk or
// non-positive TTL trusts remote feedback forever.
func (n *NodeState) MarkRemote(clk clock.Clock, staleTTL time.Duration) {
	n.mu.Lock()
	n.remote = true
	n.clk = clk
	n.staleTTL = staleTTL
	if clk != nil {
		n.summaryAt = clk.Now()
	}
	n.mu.Unlock()
}

// Remote reports whether the node's summary is externally supplied.
func (n *NodeState) Remote() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.remote
}

// Degraded reports whether a remote node's feedback has gone stale: a
// known summary older than the staleness TTL. It turns false again as
// soon as fresh feedback arrives (SetSummary restamps the age).
func (n *NodeState) Degraded() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.remote || n.staleTTL <= 0 || n.clk == nil || !n.summary.Known() {
		return false
	}
	return n.clk.Now()-n.summaryAt > n.staleTTL
}

// SetSummary overwrites the node's summary-STP with an externally
// supplied value (the wire feedback path for remote buffers), stamping
// its arrival time for staleness decay.
func (n *NodeState) SetSummary(s STP) {
	n.mu.Lock()
	n.summary = s
	if n.clk != nil {
		n.summaryAt = n.clk.Now()
	}
	n.mu.Unlock()
}

// Controller owns the ARU state for every node of a task graph and
// implements the piggyback propagation rules. All methods are safe for
// concurrent use by the runtime's thread goroutines.
type Controller struct {
	g      *graph.Graph
	policy Policy
	states []*NodeState
}

// NewController builds per-node state for the whole graph under the given
// policy. It is valid (and cheap) to build a controller for a disabled
// policy; its methods become no-ops that report Unknown. An
// estimator-bearing policy timestamps observations on the real clock;
// use NewControllerOn to supply a test or virtual clock.
func NewController(g *graph.Graph, p Policy) *Controller {
	return NewControllerOn(g, p, nil)
}

// NewControllerOn is NewController with an explicit clock for the
// estimator stage (nil falls back to the real clock). The runtime passes
// its own clock so estimators see manual/virtual time in tests and
// simulations.
func NewControllerOn(g *graph.Graph, p Policy, clk clock.Clock) *Controller {
	if p.Compressor == nil {
		p.Compressor = Min
	}
	if p.EstimatorFactory != nil && clk == nil {
		clk = clock.NewReal()
	}
	c := &Controller{g: g, policy: p, states: make([]*NodeState, g.NumNodes())}
	g.Nodes(func(n *graph.Node) {
		comp := p.Compressor
		if over, ok := p.PerNode[n.Name]; ok && over != nil {
			comp = over
		}
		st := &NodeState{
			node: n,
			comp: comp,
			vec:  NewBackwardVec(n.Out, p.NewFilter),
		}
		// The estimator stage shapes pacing, and only threads pace:
		// buffer nodes keep raw folds so the propagated vector is
		// byte-identical to the paper's regardless of backend.
		if p.EstimatorFactory != nil && n.Kind == graph.KindThread {
			st.est = p.EstimatorFactory()
			st.estClk = clk
		}
		c.states[n.ID] = st
	})
	return c
}

// Policy returns the controller's policy.
func (c *Controller) Policy() Policy { return c.policy }

// Enabled reports whether feedback propagation is active.
func (c *Controller) Enabled() bool { return c.policy.Enabled }

// State returns the ARU state for a node.
func (c *Controller) State(id graph.NodeID) *NodeState { return c.states[id] }

// NoteGet implements the consumer-side piggyback: when a consumer thread
// performs a get over conn (a buffer→thread edge), its summary-STP is
// delivered to the buffer's backwardSTP slot for that connection.
func (c *Controller) NoteGet(conn graph.ConnID) {
	if !c.policy.Enabled {
		return
	}
	edge := c.g.Conn(conn)
	consumer := c.states[edge.To]
	buffer := c.states[edge.From]
	buffer.ReceiveSummary(conn, consumer.Summary())
}

// NotePut implements the producer-side piggyback: when a producer thread
// performs a put over conn (a thread→buffer edge), the buffer's
// summary-STP is returned to the producer's backwardSTP slot for that
// connection.
func (c *Controller) NotePut(conn graph.ConnID) {
	if !c.policy.Enabled {
		return
	}
	edge := c.g.Conn(conn)
	producer := c.states[edge.From]
	buffer := c.states[edge.To]
	producer.ReceiveSummary(conn, buffer.Summary())
}

// SetCurrentSTP records a thread's measured current-STP (the
// periodicity_sync() entry point).
func (c *Controller) SetCurrentSTP(id graph.NodeID, s STP) {
	if !c.policy.Enabled {
		return
	}
	c.states[id].SetCurrentSTP(s)
}

// MarkRemote declares a node's summary-STP externally supplied (see
// NodeState.MarkRemote), with staleness decay driven by clk and
// staleTTL. Safe to call regardless of policy.
func (c *Controller) MarkRemote(id graph.NodeID, clk clock.Clock, staleTTL time.Duration) {
	c.states[id].MarkRemote(clk, staleTTL)
}

// Degraded reports whether a remote node's feedback has gone stale (see
// NodeState.Degraded). It is always false for local nodes and disabled
// policies.
func (c *Controller) Degraded(id graph.NodeID) bool {
	if !c.policy.Enabled {
		return false
	}
	return c.states[id].Degraded()
}

// SetRemoteSummary delivers a remote buffer's summary-STP as received
// over the wire. It is the remote counterpart of the NotePut fold.
func (c *Controller) SetRemoteSummary(id graph.NodeID, s STP) {
	if !c.policy.Enabled {
		return
	}
	c.states[id].SetSummary(s)
}

// DropConsumer removes a dead consumer's feedback slot from the vector
// of the buffer it consumed from (conn is a buffer→thread edge) and
// re-derives the buffer's summary. This is the local analogue of the
// remote staleness decay: feedback must always reflect *live* consumers,
// so a permanently failed thread's last summary-STP must stop throttling
// upstream producers. With the slot gone, the buffer's fold is taken over
// the surviving consumers only (Unknown when none remain), and producers
// return to their own measured period on their next NotePut.
func (c *Controller) DropConsumer(conn graph.ConnID) {
	if !c.policy.Enabled {
		return
	}
	edge := c.g.Conn(conn)
	st := c.states[edge.From]
	st.vec.RemoveSlot(conn)
	st.RefreshSummary()
}

// FadeNode clears a permanently failed thread's own ARU state: its
// current-STP and summary-STP become Unknown, so any reader of the dead
// node's feedback (ConsumerSummary for a wire-forwarded get, status
// dumps) observes "no demand" rather than the ghost of its last measured
// period.
func (c *Controller) FadeNode(id graph.NodeID) {
	if !c.policy.Enabled {
		return
	}
	st := c.states[id]
	st.mu.Lock()
	st.current = Unknown
	st.primary = Unknown
	st.repl = nil // replicas die with their primary's permanent failure
	st.summary = Unknown
	st.mu.Unlock()
	if st.est != nil {
		// A dead node's estimation history must die with it: were the
		// node restarted, a damped target learned from the old incarnation
		// would pace the new one to a ghost.
		st.est.Reset()
	}
}

// ConsumerSummary returns the summary-STP of the thread consuming over
// conn (a buffer→thread edge), or Unknown when feedback is disabled. It
// is what a wire-backed buffer endpoint forwards with each remote get.
func (c *Controller) ConsumerSummary(conn graph.ConnID) STP {
	if !c.policy.Enabled {
		return Unknown
	}
	return c.states[c.g.Conn(conn).To].Summary()
}

// TargetPeriod returns the period a thread should pace itself to: its own
// summary-STP under raw propagation, or the estimator's damped target
// when the pipeline's estimator stage is plugged in. Unknown (or a
// disabled policy) means "run free".
func (c *Controller) TargetPeriod(id graph.NodeID) STP {
	if !c.policy.Enabled {
		return Unknown
	}
	return c.states[id].Target()
}

// EstimatorState reports the estimator stage's observable state for a
// node, and whether the node has one (thread nodes under an
// estimator-bearing policy).
func (c *Controller) EstimatorState(id graph.NodeID) (EstimatorState, bool) {
	st := c.states[id]
	if st == nil || st.est == nil {
		return EstimatorState{}, false
	}
	return st.est.State(st.estClk.Now()), true
}

// Meter measures a thread's current-STP across loop iterations: the
// iteration wall time minus time blocked on inputs and minus deliberate
// throttle sleep, i.e. "the minimum time required to produce an item given
// present load conditions" (§3.3.1). The caller passes the clock reading
// to every method, so one read can serve the end of one iteration and
// the start of the next. One Meter belongs to one thread goroutine; it is
// not safe for concurrent use. The zero value is ready to use.
type Meter struct {
	iterStart time.Duration
	blocked   time.Duration
	throttled time.Duration
	started   bool
}

// BeginIteration marks the start of a thread loop iteration at now.
func (m *Meter) BeginIteration(now time.Duration) {
	m.iterStart = now
	m.blocked = 0
	m.throttled = 0
	m.started = true
}

// AddBlocked accounts time spent waiting for an upstream stage to produce
// data; it is excluded from the current-STP.
func (m *Meter) AddBlocked(d time.Duration) {
	if d > 0 {
		m.blocked += d
	}
}

// AddThrottled accounts deliberate pacing sleep; also excluded.
func (m *Meter) AddThrottled(d time.Duration) {
	if d > 0 {
		m.throttled += d
	}
}

// Elapsed returns the full wall time of the current iteration up to now
// (compute + blocked + throttled), or 0 if no iteration is open.
func (m *Meter) Elapsed(now time.Duration) time.Duration {
	if !m.started {
		return 0
	}
	return now - m.iterStart
}

// EndIteration closes the iteration at now and returns its current-STP
// along with the busy (compute) time and the time spent blocked on
// inputs. Calling it before BeginIteration returns zeros.
func (m *Meter) EndIteration(now time.Duration) (current STP, busy, blocked time.Duration) {
	if !m.started {
		return Unknown, 0, 0
	}
	elapsed := now - m.iterStart
	busy = elapsed - m.blocked - m.throttled
	if busy < 0 {
		busy = 0
	}
	blocked = m.blocked
	m.started = false
	if busy == 0 {
		return Unknown, 0, blocked
	}
	return STP(busy), busy, blocked
}

// Throttle paces a source thread to a target period.
type Throttle struct {
	clk clock.Clock
}

// NewThrottle returns a throttle on the given clock.
func NewThrottle(clk clock.Clock) *Throttle {
	return &Throttle{clk: clk}
}

// Pace sleeps long enough that an iteration which has already consumed
// spent reaches the target period, returning the time slept. Unknown
// targets and already-slow iterations sleep nothing.
func (t *Throttle) Pace(target STP, spent time.Duration) time.Duration {
	if !target.Known() {
		return 0
	}
	gap := target.Duration() - spent
	if gap <= 0 {
		return 0
	}
	t.clk.Sleep(gap)
	return gap
}
