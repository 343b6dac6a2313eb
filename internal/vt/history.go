package vt

// History records every timestamp ever added, as disjoint inclusive runs
// [lo, hi] in ascending order with at least one missing timestamp between
// neighbours. A dense stream is one run, so extending the last run — the
// in-order case — is O(1) and allocation-free; an out-of-order add
// binary-searches and merges with the run to its left, its right, or
// both. The zero value is an empty history ready to use. History is not
// safe for concurrent use; callers synchronize.
//
// A channel keeps one to decide duplicates without retaining anything per
// freed item: a timestamp is a duplicate iff it was ever put.
type History struct {
	runs []run
}

// run is the inclusive timestamp range [lo, hi].
type run struct{ lo, hi Timestamp }

// search returns the index of the first run with hi ≥ t.
func (h *History) search(t Timestamp) int {
	lo, hi := 0, len(h.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.runs[m].hi < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Add records t, reporting false if it was already recorded.
func (h *History) Add(t Timestamp) bool {
	n := len(h.runs)
	if n == 0 || t > h.runs[n-1].hi {
		if n > 0 && t == h.runs[n-1].hi+1 {
			h.runs[n-1].hi = t
		} else {
			h.runs = append(h.runs, run{t, t})
		}
		return true
	}
	i := h.search(t)
	if h.runs[i].lo <= t {
		return false
	}
	// runs[i-1].hi < t < runs[i].lo: t fills part of the gap.
	left := i > 0 && h.runs[i-1].hi+1 == t
	right := h.runs[i].lo-1 == t
	switch {
	case left && right:
		h.runs[i-1].hi = h.runs[i].hi
		h.runs = append(h.runs[:i], h.runs[i+1:]...)
	case left:
		h.runs[i-1].hi = t
	case right:
		h.runs[i].lo = t
	default:
		h.runs = append(h.runs, run{})
		copy(h.runs[i+1:], h.runs[i:])
		h.runs[i] = run{t, t}
	}
	return true
}

// Contains reports whether t was ever added.
func (h *History) Contains(t Timestamp) bool {
	i := h.search(t)
	return i < len(h.runs) && h.runs[i].lo <= t
}

// Max returns the latest timestamp added, or None if the history is empty.
func (h *History) Max() Timestamp {
	if len(h.runs) == 0 {
		return None
	}
	return h.runs[len(h.runs)-1].hi
}

// Runs returns the number of disjoint runs: 1 for a dense stream, one
// more per gap.
func (h *History) Runs() int { return len(h.runs) }
