// Package gc implements the garbage-collection strategies of the Stampede
// runtime that the paper's evaluation builds on (§4):
//
//   - None: items are reclaimed only when their channel closes. The
//     degenerate baseline, useful for ablations.
//
//   - Transparent (TGC): the runtime computes an application-wide global
//     virtual time — the minimum consumption guarantee over every consumer
//     connection in the application — and frees items older than it
//     (Nikhil & Ramachandran, PODC 2000). Conservative: one slow consumer
//     anywhere retains garbage everywhere.
//
//   - DeadTimestamp (DGC): per-channel dead-timestamp identification
//     (Harel et al., ICPP 2002). An item is dead as soon as every consumer
//     attached to its channel has a consumption guarantee at or past its
//     timestamp; consumers that skipped it will never come back for it.
//     This is "the most resource saving" collector in Stampede and the one
//     every experiment of the paper runs with.
//
// GC answers "which already-produced items can be reclaimed"; ARU (package
// core) prevents wasteful items from being produced at all. The two
// mechanisms are complementary, and the reproduction composes them exactly
// as the paper does.
package gc

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/vt"
)

// Collector decides how far a channel's live items are dead. One collector
// instance is shared by every channel of a runtime; implementations must
// be safe for concurrent use.
type Collector interface {
	// Name identifies the strategy ("none", "tgc", "dgc").
	Name() string
	// Observe notes that consumer connection conn (attached to channel
	// node ch) advanced its consumption guarantee: it will never again
	// request an item with timestamp ≤ g from that channel.
	Observe(ch graph.NodeID, conn graph.ConnID, g vt.Timestamp)
	// Forget removes a connection from consideration (consumer detach or
	// channel close), so it no longer holds back collection.
	Forget(ch graph.NodeID, conn graph.ConnID)
	// Bound returns the collection bound of channel ch, whose attached
	// consumers currently hold the given guarantees: every live item with
	// a timestamp ≤ the bound is dead. A channel's dead items are always
	// a prefix of its live items in timestamp order, so one bound says
	// everything; vt.None frees nothing.
	Bound(ch graph.NodeID, guarantees []vt.Timestamp) vt.Timestamp
}

// none never frees anything.
type none struct{}

// NewNone returns the no-op collector.
func NewNone() Collector { return none{} }

func (none) Name() string                                     { return "none" }
func (none) Observe(graph.NodeID, graph.ConnID, vt.Timestamp) {}
func (none) Forget(graph.NodeID, graph.ConnID)                {}
func (none) Bound(graph.NodeID, []vt.Timestamp) vt.Timestamp  { return vt.None }

// deadTimestamp is the DGC: local, per-channel dead-timestamp inference.
type deadTimestamp struct{}

// NewDeadTimestamp returns the dead-timestamp collector (DGC).
func NewDeadTimestamp() Collector { return deadTimestamp{} }

func (deadTimestamp) Name() string                                     { return "dgc" }
func (deadTimestamp) Observe(graph.NodeID, graph.ConnID, vt.Timestamp) {}
func (deadTimestamp) Forget(graph.NodeID, graph.ConnID)                {}

// Bound is the minimum guarantee: an item is dead once every consumer
// has passed (or consumed) its timestamp.
func (deadTimestamp) Bound(_ graph.NodeID, guarantees []vt.Timestamp) vt.Timestamp {
	if len(guarantees) == 0 {
		// No consumers attached yet: freeing now would race attachment.
		return vt.None
	}
	min := vt.Infinity
	for _, g := range guarantees {
		if g < min {
			min = g
		}
	}
	return min
}

// transparent is the TGC: an application-global virtual-time low-water
// mark. It tracks the guarantee of every consumer connection in the whole
// application and frees only items strictly below the global minimum.
type transparent struct {
	mu         sync.Mutex
	guarantees map[graph.ConnID]vt.Timestamp
}

// NewTransparent returns the transparent (global virtual time) collector.
func NewTransparent() Collector {
	return &transparent{guarantees: make(map[graph.ConnID]vt.Timestamp)}
}

func (t *transparent) Name() string { return "tgc" }

func (t *transparent) Observe(_ graph.NodeID, conn graph.ConnID, g vt.Timestamp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.guarantees[conn]; !ok || g > cur {
		t.guarantees[conn] = g
	}
}

func (t *transparent) Forget(_ graph.NodeID, conn graph.ConnID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.guarantees, conn)
}

// globalMin returns the minimum guarantee over every known consumer, or
// None when any consumer has not consumed yet.
func (t *transparent) globalMin() vt.Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.guarantees) == 0 {
		return vt.None
	}
	min := vt.Infinity
	for _, g := range t.guarantees {
		if g < min {
			min = g
		}
	}
	return min
}

// Bound frees strictly below the global low-water mark: no thread
// anywhere in the application can name such a timestamp again.
func (t *transparent) Bound(_ graph.NodeID, guarantees []vt.Timestamp) vt.Timestamp {
	if len(guarantees) == 0 {
		return vt.None
	}
	gvt := t.globalMin()
	if gvt == vt.None {
		return vt.None
	}
	return gvt - 1
}

// ByName constructs a collector from its report name; unknown names fall
// back to DGC (the paper's configuration).
func ByName(name string) Collector {
	switch name {
	case "none":
		return NewNone()
	case "tgc":
		return NewTransparent()
	default:
		return NewDeadTimestamp()
	}
}
