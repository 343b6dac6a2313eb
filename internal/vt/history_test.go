package vt

import (
	"math/rand"
	"testing"
)

// History is the package's timestamp set. It only grows, so the tests
// below hold it to the set contract minus removal: nothing added is ever
// dropped.

// checkRuns fails t unless h's runs are ascending, disjoint, never
// adjacent and each non-empty.
func checkRuns(t *testing.T, h *History, where string) {
	t.Helper()
	for i, r := range h.runs {
		if r.lo > r.hi {
			t.Fatalf("%s: run %v inverted", where, r)
		}
		if i > 0 && r.lo <= h.runs[i-1].hi+1 {
			t.Fatalf("%s: runs %v and %v overlap or touch", where, h.runs[i-1], r)
		}
	}
}

func TestSetAddRemoveContains(t *testing.T) {
	var h History
	steps := []struct {
		add   Timestamp
		fresh bool
		runs  int
	}{
		{1, true, 1},   // first run
		{2, true, 1},   // extends the last run
		{5, true, 2},   // gap: a new last run
		{2, false, 2},  // duplicate inside a run
		{5, false, 2},  // duplicate at a run's end
		{4, true, 2},   // merges right: [4, 5]
		{9, true, 3},   // [1, 2] [4, 5] [9, 9]
		{7, true, 4},   // isolated out-of-order insert
		{3, true, 3},   // merges left and right: [1, 5]
		{6, true, 2},   // merges both again: [1, 7]
		{8, true, 1},   // closes the last gap: [1, 9]
		{-3, true, 2},  // before every run
		{-2, true, 2},  // merges left only: [-3, -2]
		{0, true, 2},   // merges right only: [0, 9]
		{-1, true, 1},  // [-3, 9]
		{-1, false, 1}, // duplicate
	}
	for _, s := range steps {
		if got := h.Add(s.add); got != s.fresh {
			t.Fatalf("Add(%v) = %v, want %v", s.add, got, s.fresh)
		}
		if !h.Contains(s.add) {
			t.Fatalf("Contains(%v) false after Add", s.add)
		}
		if got := h.Runs(); got != s.runs {
			t.Fatalf("after Add(%v): %d runs, want %d", s.add, got, s.runs)
		}
	}
	for _, s := range steps {
		if !h.Contains(s.add) || h.Add(s.add) {
			t.Fatalf("%v dropped from the history", s.add)
		}
	}
	if h.Contains(10) || h.Contains(-4) {
		t.Fatalf("history [-3, 9]: Contains(10) %v, Contains(-4) %v", h.Contains(10), h.Contains(-4))
	}
}

func TestSetMinMaxEmpty(t *testing.T) {
	var h History
	if h.Max() != None || h.Runs() != 0 || h.Contains(0) || h.Contains(None) {
		t.Fatal("zero History must be empty")
	}
	h.Add(4)
	h.Add(-2)
	if h.Max() != 4 {
		t.Errorf("Max = %v, want 4", h.Max())
	}
	h.Add(3)
	if h.Max() != 4 {
		t.Errorf("Max after an older add = %v, want 4", h.Max())
	}
}

func TestSetOrderInvariant(t *testing.T) {
	var h History
	in := map[Timestamp]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ts := Timestamp(rng.Intn(100))
		h.Add(ts)
		in[ts] = true
		checkRuns(t, &h, "after Add")
	}
	for ts := Timestamp(-1); ts <= 100; ts++ {
		if h.Contains(ts) != in[ts] {
			t.Fatalf("Contains(%v) = %v, want %v", ts, h.Contains(ts), in[ts])
		}
	}
}

// TestSetQuickMatchesReference drives random adds — mostly in order with
// gaps, some out of order — against a map oracle, and checks membership,
// the reported freshness, the maximum and the run invariant after every
// step.
func TestSetQuickMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h History
		oracle := map[Timestamp]bool{}
		max := None
		next := Timestamp(0)
		for step := 0; step < 2000; step++ {
			var ts Timestamp
			if rng.Intn(3) == 0 {
				ts = Timestamp(rng.Intn(int(next) + 8)) // out of order, or a duplicate
			} else {
				next += Timestamp(1 + rng.Intn(3)) // in order, sometimes with a gap
				ts = next
			}
			if got := h.Add(ts); got != !oracle[ts] {
				t.Fatalf("seed %d step %d: Add(%v) = %v, oracle says fresh = %v", seed, step, ts, got, !oracle[ts])
			}
			oracle[ts] = true
			if ts > max {
				max = ts
			}
			if h.Max() != max {
				t.Fatalf("seed %d step %d: Max = %v, want %v", seed, step, h.Max(), max)
			}
			checkRuns(t, &h, "oracle step")
		}
		for ts := Timestamp(-2); ts <= next+10; ts++ {
			if h.Contains(ts) != oracle[ts] {
				t.Fatalf("seed %d: Contains(%v) = %v, oracle %v", seed, ts, h.Contains(ts), oracle[ts])
			}
		}
	}
}
