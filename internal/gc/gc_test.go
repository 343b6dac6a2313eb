package gc

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/vt"
)

func TestNoneNeverFrees(t *testing.T) {
	c := NewNone()
	if c.Name() != "none" {
		t.Error("name")
	}
	c.Observe(0, 0, 100)
	if got := c.Bound(0, []vt.Timestamp{100, 100}); got != vt.None {
		t.Fatalf("none collector bound %v, want None", got)
	}
	c.Forget(0, 0) // must not panic
}

func TestDGCFreesBelowMinGuarantee(t *testing.T) {
	c := NewDeadTimestamp()
	if c.Name() != "dgc" {
		t.Error("name")
	}
	// Consumers at 3 and 4: min is 3 → items ≤ 3 dead.
	if got := c.Bound(0, []vt.Timestamp{3, 4}); got != 3 {
		t.Fatalf("Bound = %v, want 3", got)
	}
	if got := c.Bound(0, []vt.Timestamp{9, 2, 5}); got != 2 {
		t.Fatalf("Bound = %v, want the minimum 2", got)
	}
}

func TestDGCNoConsumersOrUnstarted(t *testing.T) {
	c := NewDeadTimestamp()
	if got := c.Bound(0, nil); got != vt.None {
		t.Fatalf("no consumers: Bound = %v, want None", got)
	}
	if got := c.Bound(0, []vt.Timestamp{vt.None, 5}); got != vt.None {
		t.Fatalf("unstarted consumer must block collection, got %v", got)
	}
}

func TestDGCDetachedConsumerInfinity(t *testing.T) {
	c := NewDeadTimestamp()
	if got := c.Bound(0, []vt.Timestamp{vt.Infinity}); got != vt.Infinity {
		t.Fatalf("detached-only consumers must free everything, got bound %v", got)
	}
}

// Property (DGC safety): an item a consumer could still request — its
// timestamp above that consumer's guarantee — is never at or below the
// bound, and the bound is tight: the minimum guarantee itself is dead.
func TestDGCQuickSafety(t *testing.T) {
	c := NewDeadTimestamp()
	f := func(guarRaw []int8) bool {
		guarantees := make([]vt.Timestamp, len(guarRaw))
		for i, v := range guarRaw {
			guarantees[i] = vt.Timestamp(v)
		}
		bound := c.Bound(0, guarantees)
		if len(guarantees) == 0 {
			return bound == vt.None
		}
		tight := false
		for _, g := range guarantees {
			if bound > g { // some consumer may still request bound
				return false
			}
			tight = tight || bound == g
		}
		return tight
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTGCUsesGlobalMinimum(t *testing.T) {
	c := NewTransparent()
	if c.Name() != "tgc" {
		t.Error("name")
	}
	chA, chB := graph.NodeID(1), graph.NodeID(2)
	// Channel A's consumer is at 10, channel B's lags at 2.
	c.Observe(chA, graph.ConnID(0), 10)
	c.Observe(chB, graph.ConnID(1), 2)

	// Even on channel A, only items < 2 (the global min) die: strictly
	// below, so the bound is 1.
	if got := c.Bound(chA, []vt.Timestamp{10}); got != 1 {
		t.Fatalf("TGC Bound = %v, want 1", got)
	}

	// DGC on the same channel would free everything ≤ 10.
	dgc := NewDeadTimestamp()
	if got := dgc.Bound(chA, []vt.Timestamp{10}); got != 10 {
		t.Fatalf("DGC comparison = %v, want 10", got)
	}
}

func TestTGCObserveKeepsMax(t *testing.T) {
	c := NewTransparent().(*transparent)
	c.Observe(0, 0, 5)
	c.Observe(0, 0, 3) // stale observation must not regress
	if got := c.globalMin(); got != 5 {
		t.Fatalf("globalMin = %v, want 5", got)
	}
}

func TestTGCForgetReleases(t *testing.T) {
	c := NewTransparent()
	c.Observe(0, graph.ConnID(0), 100)
	c.Observe(0, graph.ConnID(1), 1)
	// The lagging consumer at 1 retains an item at 50.
	if got := c.Bound(0, []vt.Timestamp{100}); got != 0 {
		t.Fatalf("lagging consumer must retain, got bound %v, want 0", got)
	}
	c.Forget(0, graph.ConnID(1))
	if got := c.Bound(0, []vt.Timestamp{100}); got != 99 {
		t.Fatalf("after Forget, Bound = %v, want 99", got)
	}
}

func TestTGCEmptyStates(t *testing.T) {
	c := NewTransparent()
	if got := c.Bound(0, nil); got != vt.None {
		t.Fatalf("no local consumers: %v", got)
	}
	// Local consumers exist but nothing observed globally yet.
	if got := c.Bound(0, []vt.Timestamp{5}); got != vt.None {
		t.Fatalf("no global observations yet: %v", got)
	}
}

// Property: TGC is at least as conservative as DGC — everything TGC frees,
// DGC would also free given the same local guarantees (with the global
// view seeded from the same channel).
func TestTGCQuickMoreConservativeThanDGC(t *testing.T) {
	f := func(guarRaw []int8) bool {
		if len(guarRaw) == 0 {
			return true
		}
		tgc := NewTransparent()
		dgc := NewDeadTimestamp()
		guarantees := make([]vt.Timestamp, len(guarRaw))
		for i, v := range guarRaw {
			guarantees[i] = vt.Timestamp(v)
			tgc.Observe(0, graph.ConnID(i), guarantees[i])
		}
		return tgc.Bound(0, guarantees) <= dgc.Bound(0, guarantees)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	if ByName("none").Name() != "none" {
		t.Error("none")
	}
	if ByName("tgc").Name() != "tgc" {
		t.Error("tgc")
	}
	if ByName("dgc").Name() != "dgc" {
		t.Error("dgc")
	}
	if ByName("bogus").Name() != "dgc" {
		t.Error("unknown must fall back to dgc")
	}
}
