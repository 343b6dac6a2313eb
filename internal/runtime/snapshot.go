// Runtime.Snapshot: the single consistent point-in-time view every
// presentation layer derives from. WriteStatus (text) calls Snapshot,
// and so does every gather of the metrics registry (the HTTP JSON and
// Prometheus endpoints), so the outputs can never disagree about what
// the runtime looked like — they are renderings of one struct.
//
// Snapshot also fixes the WriteStatus lock-order hazard: the node/
// buffer pairs are collected under rt.mu, the lock is released, and
// only then is each buffer read, by one Stats call that takes the
// buffer's own lock once. rt.mu and buffer locks are never nested, and
// each buffer's row is one consistent reading of its books.
package runtime

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/graph"
)

// NodeStatus is one node's ARU state in a snapshot, extending the
// controller's view with the staleness flag.
type NodeStatus struct {
	core.NodeSnapshot
	// Degraded reports that the node's remote feedback has gone stale
	// (always false for local nodes).
	Degraded bool
}

// BufferStatus is one materialized buffer endpoint's state in a
// snapshot.
type BufferStatus struct {
	// Node is the buffer's task-graph id; Name its system-wide name;
	// Backend the registered backend that materialized it.
	Node    graph.NodeID
	Name    string
	Backend string
	// Items and Bytes are the live occupancy at snapshot time.
	Items int
	Bytes int64
	// Puts and Frees are the cumulative insert/reclaim counts.
	Puts, Frees int64
	// HighWaterItems and HighWaterBytes are the occupancy high-water
	// marks since Start. They are maintained by the metrics instruments
	// and read zero when metrics are disabled (the off hot path does no
	// extra work).
	HighWaterItems, HighWaterBytes int64
	// DrainedItems counts items delivered to a consumer after the
	// buffer was sealed for drain; ShedItems counts items discarded
	// undelivered at shutdown (explicitly shed, not silently lost).
	DrainedItems, ShedItems int64
	// PutBlocked and PutBlockedCount accumulate producer
	// capacity-blocking on the buffer — the elastic scheduler's
	// backlog-pressure sensor. Zero for remote endpoints, whose puts
	// have no local capacity to block on.
	PutBlocked      time.Duration
	PutBlockedCount int64
}

// Snapshot is the consistent point-in-time view of a running
// application: controller state, buffer occupancy, and thread health,
// all collected by one call. WriteStatus, the HTTP endpoints, and the
// metrics registry's gauges are renderings of this struct.
type Snapshot struct {
	// At is the runtime-clock reading when the snapshot was taken.
	At time.Duration
	// ARUEnabled reports whether feedback propagation is active.
	ARUEnabled bool
	// Nodes is the per-node ARU state, node-id ordered (empty before
	// Start).
	Nodes []NodeStatus
	// Buffers lists every materialized endpoint in graph declaration
	// order.
	Buffers []BufferStatus
	// Threads is the supervision health view, name-ordered.
	Threads []ThreadHealth
	// Draining reports that a graceful drain was in progress (or had
	// completed) when the snapshot was taken.
	Draining bool
	// Replicas maps stage name → live elastic replica count. Nil when no
	// stage is replicated (the default, non-elastic configuration), so
	// status renderings of non-elastic runs are byte-identical to the
	// pre-elastic output.
	Replicas map[string]int
}

// Snapshot collects the consistent status view and publishes it to the
// metrics registry's gauge families (when metrics are enabled). It is
// safe to call concurrently with running threads and with itself, and —
// unlike the pre-snapshot WriteStatus — never holds rt.mu across a
// buffer's own lock.
func (rt *Runtime) Snapshot() Snapshot {
	type bref struct {
		node    graph.NodeID
		name    string
		backend string
		b       buffer.Buffer
	}
	rt.mu.Lock()
	ctrl := rt.ctrl
	brefs := make([]bref, 0, len(rt.buffers))
	rt.g.Nodes(func(n *graph.Node) {
		b, ok := rt.buffers[n.ID]
		if !ok {
			return
		}
		backend := ""
		if ref := rt.refs[n.ID]; ref != nil {
			backend = ref.backend
		}
		brefs = append(brefs, bref{n.ID, n.Name, backend, b})
	})
	rt.mu.Unlock()

	snap := Snapshot{At: rt.clk.Now()}
	if ctrl != nil {
		snap.ARUEnabled = ctrl.Enabled()
		for _, ns := range ctrl.Snapshot() {
			snap.Nodes = append(snap.Nodes, NodeStatus{NodeSnapshot: ns, Degraded: ctrl.Degraded(ns.Node)})
		}
	}
	for _, br := range brefs {
		st := br.b.Stats() // rt.mu NOT held: no lock nesting
		snap.Buffers = append(snap.Buffers, BufferStatus{
			Node: br.node, Name: br.name, Backend: br.backend,
			Items: st.Items, Bytes: st.Bytes, Puts: st.Puts, Frees: st.Frees,
			HighWaterItems: st.HighWaterItems, HighWaterBytes: st.HighWaterBytes,
			DrainedItems: st.Drained, ShedItems: st.Shed,
			PutBlocked: st.PutBlocked, PutBlockedCount: st.PutBlockedCount,
		})
	}
	snap.Threads = rt.Health().Threads
	snap.Draining = rt.draining.Load()
	snap.Replicas = rt.ReplicaCounts()
	rt.publish(snap)
	return snap
}
