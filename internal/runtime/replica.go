// Elastic stage replication: the actuator half of the resource-aware
// scheduler (internal/sched).
//
// A replica is one additional supervised incarnation of a declared
// thread: the same body, the same task-graph node, and — critically —
// the *same ports*. All incarnations share the stage's consumer
// connections, so k replicas behind a FIFO buffer drain one backlog
// cooperatively (each item is delivered to exactly one of them) and the
// conservation ledger (produced == delivered + shed) is untouched by
// scaling. Each incarnation measures its own current-STP through its
// own Ctx, and the controller folds the measurements as a parallel
// composition (core/replica.go), so the stage's summary-STP relaxes as
// replicas come online and upstream throttling eases through the
// ordinary feedback rules.
//
// Retirement is drain-safe by construction: RetireReplica flips the
// replica's retiring flag, which gates only the *consume* side (the
// mirror image of the drain quiesce, which gates produce). The replica
// finishes the item it already holds — its outputs are delivered, its
// Sync runs — and the next get reports ErrDraining, a clean supervised
// exit. A replica parked inside a blocking get retires lazily when the
// next item (or shutdown) wakes it; it consumes nothing after the flag
// is set... except the single item that wakes it, which it processes
// fully. Either way no consumed item is ever dropped mid-stage.
package runtime

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// SpawnReplica spawns one additional supervised incarnation of the
// named stage, placed on the given host (host < 0 inherits the
// primary's placement). The replica is a real thread: supervised with
// the primary's restart policy, heartbeat-tracked, metric-instrumented
// under its own name ("stage#N"), and visible in Health, Snapshot, and
// WriteStatus. It must be called on a started, running runtime —
// normally from a ControlLoop, whose goroutine the runtime already
// accounts for.
//
// Source stages (no inputs) are rejected: replicating a producer
// duplicates production instead of dividing work, which breaks the
// exactly-once conservation ledger the shared-consumer design
// guarantees.
func (rt *Runtime) SpawnReplica(stage string, host int) (*Thread, error) {
	rt.mu.Lock()
	if !rt.started {
		rt.mu.Unlock()
		return nil, fmt.Errorf("runtime: SpawnReplica(%q) before Start", stage)
	}
	if rt.stopped {
		rt.mu.Unlock()
		return nil, fmt.Errorf("runtime: SpawnReplica(%q) after Stop", stage)
	}
	if rt.draining.Load() {
		rt.mu.Unlock()
		return nil, fmt.Errorf("runtime: SpawnReplica(%q) during drain", stage)
	}
	primary := rt.primaryLocked(stage)
	if primary == nil {
		rt.mu.Unlock()
		return nil, fmt.Errorf("runtime: SpawnReplica: no thread %q", stage)
	}
	if len(primary.ins) == 0 {
		rt.mu.Unlock()
		return nil, fmt.Errorf("runtime: SpawnReplica(%q): a source stage cannot be replicated (it would duplicate production)", stage)
	}
	if host < 0 {
		host = primary.host
	}
	if err := rt.checkHost(host); err != nil {
		rt.mu.Unlock()
		return nil, err
	}

	rt.replMu.Lock()
	if rt.replicas == nil {
		rt.replicas = make(map[graph.NodeID][]*Thread)
		rt.replSeq = make(map[graph.NodeID]int)
	}
	rt.replSeq[primary.id]++
	slot := rt.replSeq[primary.id]
	r := &Thread{
		rt:          rt,
		id:          primary.id,
		name:        fmt.Sprintf("%s#%d", primary.name, slot),
		host:        host,
		body:        primary.body,
		tenant:      primary.tenant,
		ins:         primary.ins, // shared: one backlog, drained cooperatively
		outs:        primary.outs,
		restart:     primary.restart,
		hasRestart:  primary.hasRestart,
		stallTTL:    primary.stallTTL,
		replicaSlot: slot,
	}
	// Bespoke prepare: the shared ports' endpoints were resolved at
	// Start, and rewriting p.buf here would race the primary's hot path.
	r.stop = make(chan struct{})
	r.rng = newSupervisionRNG(r.restart.Seed, r.name)
	r.lastBeat.Store(int64(rt.clk.Now()))
	rt.replicas[primary.id] = append(rt.replicas[primary.id], r)
	rt.replMu.Unlock()

	// In rt.threads the replica participates in everything keyed off the
	// thread list: Stop's requestStop sweep, drain quiesce waves, the
	// stall watchdog, and Health.
	rt.threads = append(rt.threads, r)
	rt.mu.Unlock()

	rt.registerThreadInstruments(r)
	// Register the slot with the controller now (Unknown until the
	// replica's first Sync measures it), so controller snapshots count
	// the replica from the moment it exists.
	rt.ctrl.SetReplicaSTP(r.id, slot, core.Unknown)

	rt.spawn(func() {
		r.supervise()
		rt.finishReplica(r)
	})
	return r, nil
}

// RetireReplica requests drain-safe retirement of the named stage's most
// recently spawned live replica and returns the retiring replica's
// name. The replica leaves the live count (and the controller's
// parallel fold) immediately so upstream throttling tightens without
// waiting; the goroutine itself exits at its next get — lazily, if it
// is parked inside a blocking get on an idle buffer.
func (rt *Runtime) RetireReplica(stage string) (string, error) {
	rt.mu.Lock()
	primary := rt.primaryLocked(stage)
	rt.mu.Unlock()
	if primary == nil {
		return "", fmt.Errorf("runtime: RetireReplica: no thread %q", stage)
	}
	rt.replMu.Lock()
	live := rt.replicas[primary.id]
	if len(live) == 0 {
		rt.replMu.Unlock()
		return "", fmt.Errorf("runtime: RetireReplica(%q): no live replicas", stage)
	}
	r := live[len(live)-1]
	rt.replicas[primary.id] = live[:len(live)-1]
	rt.replMu.Unlock()

	r.retiring.Store(true)
	// Drop the slot from the fold now for prompt upstream feedback. The
	// replica's final Sync (closing out the item it already holds) may
	// transiently re-add it; finishReplica removes it again — the
	// authoritative cleanup — when the goroutine exits.
	rt.ctrl.RetireReplica(r.id, r.replicaSlot)
	return r.name, nil
}

// finishReplica is the post-supervise cleanup of one replica goroutine,
// for every exit path (retirement, shutdown, permanent failure): the
// slot leaves the controller fold so the stage's effective period
// reflects only live incarnations, and the replica leaves the live
// registry if retirement has not already removed it.
func (rt *Runtime) finishReplica(r *Thread) {
	rt.ctrl.RetireReplica(r.id, r.replicaSlot)
	rt.replMu.Lock()
	live := rt.replicas[r.id]
	for i, t := range live {
		if t == r {
			rt.replicas[r.id] = append(live[:i], live[i+1:]...)
			break
		}
	}
	rt.replMu.Unlock()
}

// primaryLocked finds the primary incarnation of a stage by name;
// callers hold rt.mu.
func (rt *Runtime) primaryLocked(stage string) *Thread {
	for _, t := range rt.threads {
		if t.replicaSlot == 0 && t.name == stage {
			return t
		}
	}
	return nil
}

// ReplicaCount returns the number of live replicas of the named stage
// (the primary is not counted; retiring replicas leave the count at
// retire-request time).
func (rt *Runtime) ReplicaCount(stage string) int {
	return rt.ReplicaCounts()[stage]
}

// ReplicaCounts returns stage name → live replica count, nil when no
// stage is replicated — the non-elastic configuration stays
// indistinguishable from before the scheduler existed.
func (rt *Runtime) ReplicaCounts() map[string]int {
	rt.replMu.Lock()
	defer rt.replMu.Unlock()
	var out map[string]int
	for id, live := range rt.replicas {
		if len(live) == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]int)
		}
		out[rt.g.Node(id).Name] = len(live)
	}
	return out
}
