package channel

import "repro/internal/vt"

// entry is one live item and its timestamp, kept beside the pointer so
// searches never dereference an item.
type entry struct {
	ts vt.Timestamp
	it *Item
}

// store holds a channel's live items as one ascending run: a slice plus a
// head index. The collector only ever frees a prefix (gc.Collector.Bound),
// so a free pops the head; a put above the newest live timestamp appends,
// and an out-of-order put shifts into place. Popped entries are zeroed,
// and a full slice makes room (makeRoom) by dropping its dead head, so the
// backing array never exceeds twice the largest live count plus minRoom
// no matter how many items pass through.
type store struct {
	s    []entry
	head int
}

// minRoom is the free space a new backing array gets beyond twice the
// live count.
const minRoom = 64

// Len returns the number of live items.
func (s *store) Len() int { return len(s.s) - s.head }

// live returns the live entries in ascending timestamp order. The slice
// aliases the store: it is valid until the next insert or pop.
func (s *store) live() []entry { return s.s[s.head:] }

// max returns the newest live timestamp, or vt.None when empty.
func (s *store) max() vt.Timestamp {
	if s.Len() == 0 {
		return vt.None
	}
	return s.s[len(s.s)-1].ts
}

// after returns the index in live() of the first entry with ts > t.
func (s *store) after(t vt.Timestamp) int {
	l := s.live()
	lo, hi := 0, len(l)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l[m].ts <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the live item at exactly ts, or nil.
func (s *store) find(ts vt.Timestamp) *Item {
	if i := s.after(ts); i > 0 && s.live()[i-1].ts == ts {
		return s.live()[i-1].it
	}
	return nil
}

// insert adds the item at ts, which must not be live.
func (s *store) insert(ts vt.Timestamp, it *Item) {
	if len(s.s) == cap(s.s) {
		s.makeRoom()
	}
	e := entry{ts, it}
	if ts > s.max() {
		s.s = append(s.s, e)
		return
	}
	i := s.head + s.after(ts)
	s.s = append(s.s, entry{})
	copy(s.s[i+1:], s.s[i:])
	s.s[i] = e
}

// min returns the oldest live timestamp; the store must not be empty.
func (s *store) min() vt.Timestamp { return s.s[s.head].ts }

// makeRoom frees space in a full slice. A dead head of at least half the
// slice is compacted away in place, a copy paid for by the pops that
// made it. Otherwise the live entries are more than half the slice, and
// they move to a new array of twice their count plus minRoom — larger
// than the full one, and bounded by the live count alone.
func (s *store) makeRoom() {
	n := s.Len()
	if s.head > 0 && 2*s.head >= len(s.s) {
		copy(s.s, s.s[s.head:])
		clear(s.s[n:])
		s.s = s.s[:n]
	} else {
		grown := make([]entry, n, 2*n+minRoom)
		copy(grown, s.live())
		s.s = grown
	}
	s.head = 0
}

// pop removes and returns the oldest live item; the store must not be
// empty.
func (s *store) pop() *Item {
	it := s.s[s.head].it
	s.s[s.head] = entry{} // release the reference
	s.head++
	if s.head == len(s.s) {
		s.s, s.head = s.s[:0], 0
	}
	return it
}
