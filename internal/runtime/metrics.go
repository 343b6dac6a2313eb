// Live metrics instrumentation of the runtime layer: per-thread
// supervision and iteration counters, per-buffer consumption counters,
// and the gauge families computed at gather time (STP, occupancy,
// heartbeat age).
//
// The registration/increment split mirrors package metrics' contract:
// every handle below is resolved once at Start (the cold path, where
// map lookups and label allocations are acceptable), and the hot paths
// (Ctx.Sync, Ctx.Get, Ctx.Put, the supervisor loop) touch only nil-safe
// handles — one branch when metrics are off, a fixed number of atomic
// ops when they are on. The existing allocation pins (put = 1 item
// allocation, get = 0) hold in both modes.
package runtime

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Prometheus family names for the runtime-level instruments. Node
// families carry {node="<name>"}, buffer families {buffer="<name>"},
// thread families {thread="<name>"}.
const (
	// Gauges computed at gather time.
	MetricBufferItems   = "aru_buffer_items"
	MetricBufferBytes   = "aru_buffer_bytes"
	MetricNodeCurrent   = "aru_node_current_stp_seconds"
	MetricNodeSummary   = "aru_node_summary_stp_seconds"
	MetricNodeComp      = "aru_node_compressed_stp_seconds"
	MetricNodeDegraded  = "aru_node_degraded"
	MetricHeartbeatAge  = "aru_thread_heartbeat_age_seconds"
	MetricThreadStalled = "aru_thread_stalled"

	// Estimator-stage gauges (thread nodes under an estimator-bearing
	// policy only; see DESIGN.md §4h).
	MetricNodeTarget      = "aru_node_target_stp_seconds"
	MetricNodeEstimate    = "aru_node_estimated_stp_seconds"
	MetricNodeTrend       = "aru_node_trend_state"
	MetricNodePhase       = "aru_node_aimd_phase"
	MetricNodeFeedbackItv = "aru_node_feedback_interval_seconds"

	// Event-incremented counters and histograms.
	MetricGets          = "aru_buffer_gets_total"
	MetricGetBlocked    = "aru_buffer_get_blocked_seconds"
	MetricPeerFailed    = "aru_buffer_peer_failed_total"
	MetricNodeDegradedT = "aru_node_degraded_transitions_total"
	MetricNodeFaded     = "aru_node_faded_total"
	MetricIterations    = "aru_thread_iterations_total"
	MetricThrottleSleep = "aru_throttle_sleep_seconds_total"
	MetricRestarts      = "aru_thread_restarts_total"
	MetricPanics        = "aru_thread_panics_total"
	MetricFailures      = "aru_thread_failures_total"
	MetricStallEpisodes = "aru_thread_stall_episodes_total"
	MetricNodeBackoffs  = "aru_node_aimd_backoffs_total"
	MetricNodeSpeedups  = "aru_node_aimd_speedups_total"

	// Graceful-drain instruments (runtime-wide, no labels). The
	// per-buffer drained/shed counters live in package buffer
	// (buffer.MetricDrained, buffer.MetricShed).
	MetricDrainDuration = "aru_drain_duration_seconds"
	MetricDraining      = "aru_runtime_draining"
)

// threadInstruments holds one thread's live handles. The zero value
// (all nil) is the metrics-off configuration; every use no-ops after a
// branch.
type threadInstruments struct {
	iterations    *metrics.Counter
	throttleSleep *metrics.Counter // nanoseconds, rendered as seconds
	restarts      *metrics.Counter
	panics        *metrics.Counter
	failures      *metrics.Counter
	stallEpisodes *metrics.Counter
	faded         *metrics.Counter
	heartbeatAge  *metrics.Gauge // set by publish
	stalled       *metrics.Gauge // set by publish
}

// nodeInstruments holds one task-graph node's publish-refreshed ARU
// gauges plus the degraded-transition counter.
type nodeInstruments struct {
	current    *metrics.Gauge
	compressed *metrics.Gauge
	summary    *metrics.Gauge
	degraded   *metrics.Gauge
	degradedT  *metrics.Counter
	// wasDegraded is the transition edge detector; atomic because
	// concurrent Snapshot calls may publish at once.
	wasDegraded atomic.Bool

	// Estimator-stage instruments (thread nodes under an
	// estimator-bearing policy only; all nil otherwise). The estimator
	// reports lifetime back-off/speed-up totals, so the published
	// counters advance by the diff against the last published total —
	// the atomic Swap makes concurrent publishes settle on exactly one
	// increment per actuation (the wasDegraded idiom, for counts).
	target      *metrics.Gauge
	estimate    *metrics.Gauge
	trend       *metrics.Gauge
	phase       *metrics.Gauge
	feedbackItv *metrics.Gauge
	backoffs    *metrics.Counter
	speedups    *metrics.Counter
	lastBack    atomic.Uint64
	lastSpeed   atomic.Uint64
}

// bufferInstruments holds one buffer's publish-refreshed occupancy
// gauges.
type bufferInstruments struct {
	items *metrics.Gauge
	bytes *metrics.Gauge
}

// tenantLabels builds a label set, appending the tenant dimension when
// the tag is non-empty so untagged runs keep their exact historical
// label sets.
func tenantLabels(key, name, tenant string) metrics.Labels {
	ls := metrics.Labels{key: name}
	if tenant != "" {
		ls["tenant"] = tenant
	}
	return ls
}

// registerInstrumentsLocked resolves every runtime-level handle against
// Options.Metrics. Called once from Start with rt.mu held, after the
// buffers are materialized; a nil registry leaves every handle nil.
func (rt *Runtime) registerInstrumentsLocked() {
	reg := rt.opts.Metrics
	if reg == nil {
		return
	}
	rt.nodeInst = make(map[graph.NodeID]*nodeInstruments)
	rt.bufInst = make(map[graph.NodeID]*bufferInstruments)
	rt.threadByName = make(map[string]*Thread, len(rt.threads))
	rt.mDrainDur = reg.Histogram(MetricDrainDuration, "Duration of graceful drains (Runtime.Drain).", nil, nil)
	rt.mDraining = reg.Gauge(MetricDraining, "1 while a graceful drain is in progress.", nil)
	// Tenant tags per node: buffers carry theirs on the ref, threads on
	// the Thread. Node-level families inherit the owning entity's tag.
	tenants := make(map[graph.NodeID]string)
	for id, ref := range rt.refs {
		tenants[id] = ref.tenant
	}
	for _, t := range rt.threads {
		tenants[t.id] = t.tenant
	}
	estOn := rt.opts.ARU.EstimatorFactory != nil
	rt.g.Nodes(func(n *graph.Node) {
		nls := tenantLabels("node", n.Name, tenants[n.ID])
		ni := &nodeInstruments{
			current:    reg.DurationGauge(MetricNodeCurrent, "Last measured current-STP of the node (NaN: unknown).", nls),
			compressed: reg.DurationGauge(MetricNodeComp, "Compressed backwardSTP of the node (NaN: unknown).", nls),
			summary:    reg.DurationGauge(MetricNodeSummary, "Propagated summary-STP of the node (NaN: unknown).", nls),
		}
		rt.nodeInst[n.ID] = ni
		if estOn && n.Kind == graph.KindThread {
			ni.target = reg.DurationGauge(MetricNodeTarget, "Estimator pacing target the node's thread throttles to (NaN: unknown).", nls)
			ni.estimate = reg.DurationGauge(MetricNodeEstimate, "Sliding-window estimate of the node's feedback signal (NaN: unknown).", nls)
			ni.trend = reg.Gauge(MetricNodeTrend, "Backlog trend classification: -1 underuse, 0 hold, 1 overuse.", nls)
			ni.phase = reg.Gauge(MetricNodePhase, "AIMD actuation phase: -1 backoff, 0 hold, 1 speedup.", nls)
			ni.feedbackItv = reg.DurationGauge(MetricNodeFeedbackItv, "Mean interval between feedback samples in the estimator window.", nls)
			ni.backoffs = reg.Counter(MetricNodeBackoffs, "Multiplicative back-offs applied by the node's rate controller.", nls)
			ni.speedups = reg.Counter(MetricNodeSpeedups, "Additive speed-ups applied by the node's rate controller.", nls)
		}
		if _, isBuf := rt.buffers[n.ID]; isBuf {
			bls := tenantLabels("buffer", n.Name, tenants[n.ID])
			ni.degraded = reg.Gauge(MetricNodeDegraded, "1 while the node's remote feedback is stale (degraded).", nls)
			ni.degradedT = reg.Counter(MetricNodeDegradedT, "Fresh→stale transitions of the node's remote feedback.", nls)
			rt.bufInst[n.ID] = &bufferInstruments{
				items: reg.Gauge(MetricBufferItems, "Live items in the buffer (sampled).", bls),
				bytes: reg.Gauge(MetricBufferBytes, "Live bytes in the buffer (sampled).", bls),
			}
		}
	})
	for _, t := range rt.threads {
		rt.registerThreadInstruments(t)
		for _, p := range t.ins {
			ls := tenantLabels("buffer", p.ref.name, p.ref.tenant)
			p.mGets = reg.Counter(MetricGets, "Items consumed from the buffer.", ls)
			p.mGetBlocked = reg.Histogram(MetricGetBlocked, "Time consumers spent blocked in gets.", nil, ls)
			p.mPeerFailed = reg.Counter(MetricPeerFailed, "Operations woken by total peer failure (ErrPeerFailed).", ls)
		}
		for _, p := range t.outs {
			p.mPeerFailed = reg.Counter(MetricPeerFailed, "Operations woken by total peer failure (ErrPeerFailed).", tenantLabels("buffer", p.ref.name, p.ref.tenant))
		}
	}
	// The gauge-class families (occupancy, STP, heartbeat age) are
	// computed when the registry is read: every Gather takes a Snapshot
	// first.
	reg.OnGather(func() { rt.Snapshot() })
}

// registerThreadInstruments resolves one thread's supervision and
// iteration handles and publishes the thread to threadByName. Called at
// Start for every declared thread and from SpawnReplica for elastic
// replicas (whose names are unique per slot) — the map insert is
// instMu-guarded because replicas register while Snapshot may publish.
// Port instruments are not touched here: a replica shares its primary's
// ports, whose handles were resolved at Start. No-op when metrics are
// disabled.
func (rt *Runtime) registerThreadInstruments(t *Thread) {
	reg := rt.opts.Metrics
	if reg == nil {
		return
	}
	tls := tenantLabels("thread", t.name, t.tenant)
	t.tm = threadInstruments{
		iterations:    reg.Counter(MetricIterations, "Completed Sync iterations.", tls),
		throttleSleep: reg.DurationCounter(MetricThrottleSleep, "Time the source throttle slept to match the summary-STP.", tls),
		restarts:      reg.Counter(MetricRestarts, "Supervised restarts completed.", tls),
		panics:        reg.Counter(MetricPanics, "Panics recovered from the thread body.", tls),
		failures:      reg.Counter(MetricFailures, "Permanent failures (restart budget exhausted or RestartNever).", tls),
		stallEpisodes: reg.Counter(MetricStallEpisodes, "Stall episodes flagged by the watchdog.", tls),
		faded:         reg.Counter(MetricNodeFaded, "Times the controller faded this node's feedback on permanent failure.", tenantLabels("node", t.name, t.tenant)),
		heartbeatAge:  reg.DurationGauge(MetricHeartbeatAge, "Age of the thread's last heartbeat (sampled).", tls),
		stalled:       reg.Gauge(MetricThreadStalled, "1 while the stall watchdog flags the thread.", tls),
	}
	rt.instMu.Lock()
	rt.threadByName[t.name] = t
	rt.instMu.Unlock()
}

// noteGet records one get outcome on the port's instruments: the
// blocked wait, the n items consumed (one Add for a whole batch), and
// ErrPeerFailed wakeups. The nil-handle branch runs once per operation,
// so metrics cost nothing per item on the batch path.
func (p *InPort) noteGet(n int, blocked time.Duration, err error) {
	if p.mGets == nil {
		return
	}
	if blocked > 0 {
		p.mGetBlocked.Observe(blocked)
	}
	if n > 0 {
		p.mGets.Add(int64(n))
	}
	if errors.Is(err, buffer.ErrPeerFailed) {
		p.mPeerFailed.Inc()
	}
}

// notePut records a put outcome's failure class (ErrPeerFailed wakeups;
// successes are counted inside the buffer layer itself).
func (p *OutPort) notePut(err error) {
	if err != nil && errors.Is(err, buffer.ErrPeerFailed) {
		p.mPeerFailed.Inc()
	}
}

// setSTPGauge publishes an STP value to a duration gauge, mapping
// Unknown to the NaN sentinel.
func setSTPGauge(g *metrics.Gauge, s core.STP) {
	if g == nil {
		return
	}
	if s.Known() {
		g.SetDuration(s.Duration())
	} else {
		g.SetUnknown()
	}
}

// publish refreshes the gather-time gauge families from a snapshot.
// No-op when metrics are disabled. Counters are event-incremented
// elsewhere; only gauges (point-in-time values) are written here, so
// concurrent publishes are harmless last-writer-wins races on values
// that are themselves instantaneous.
func (rt *Runtime) publish(snap Snapshot) {
	if rt.opts.Metrics == nil {
		return
	}
	for i := range snap.Nodes {
		ns := &snap.Nodes[i]
		ni := rt.nodeInst[ns.Node]
		if ni == nil {
			continue
		}
		setSTPGauge(ni.current, ns.Current)
		setSTPGauge(ni.compressed, ns.Compressed)
		setSTPGauge(ni.summary, ns.Summary)
		if ni.target != nil && ns.Estimator != nil {
			es := ns.Estimator
			setSTPGauge(ni.target, es.Target)
			setSTPGauge(ni.estimate, es.Estimate)
			ni.trend.Set(int64(es.Trend))
			ni.phase.Set(int64(es.Phase))
			ni.feedbackItv.SetDuration(es.FeedbackInterval)
			// Publish the lifetime totals as counter increments; the Swap
			// hands each delta to exactly one publisher, and a stale
			// snapshot racing a fresher one yields a wrapped (huge) delta
			// that is simply skipped.
			if d := es.Backoffs - ni.lastBack.Swap(es.Backoffs); d > 0 && d < 1<<62 {
				ni.backoffs.Add(int64(d))
			}
			if d := es.Speedups - ni.lastSpeed.Swap(es.Speedups); d > 0 && d < 1<<62 {
				ni.speedups.Add(int64(d))
			}
		}
		if ni.degraded != nil {
			ni.degraded.SetBool(ns.Degraded)
			if ns.Degraded {
				if ni.wasDegraded.CompareAndSwap(false, true) {
					ni.degradedT.Inc()
				}
			} else {
				ni.wasDegraded.Store(false)
			}
		}
	}
	for i := range snap.Buffers {
		bs := &snap.Buffers[i]
		bi := rt.bufInst[bs.Node]
		if bi == nil {
			continue
		}
		bi.items.Set(int64(bs.Items))
		bi.bytes.Set(bs.Bytes)
	}
	rt.instMu.Lock()
	for i := range snap.Threads {
		th := &snap.Threads[i]
		t := rt.threadByName[th.Name]
		if t == nil {
			continue
		}
		t.tm.heartbeatAge.SetDuration(th.HeartbeatAge)
		t.tm.stalled.SetBool(th.Stalled)
	}
	rt.instMu.Unlock()
}
