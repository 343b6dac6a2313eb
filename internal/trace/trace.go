// Package trace implements the measurement infrastructure described in §4
// of the paper: "Each interaction of an item with the operating system
// (e.g., allocation, deallocation, etc.) is recorded. Items that do not
// make it to the end of the pipeline are marked to differentiate between
// wasted and successful memory and computations. A postmortem analysis
// program uses these statistics to derive the metrics of interest."
//
// The runtime appends Events to a Recorder during execution; Analyze runs
// the postmortem pass, classifying every item as successful (its data
// transitively reached a pipeline sink) or wasted, and computing the
// paper's metrics: mean/std memory footprint (MUμ/MUσ), percentage wasted
// memory and computation, latency, throughput, jitter, and the Ideal
// Garbage Collector (IGC) lower bound on footprint.
package trace

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/vt"
)

// ItemID uniquely identifies one data item instance across the whole run.
// Each Put creates a distinct item (Stampede copies data into the channel).
type ItemID int64

// NoItem is the invalid item id.
const NoItem ItemID = 0

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvAlloc records the creation of an item by a producer thread. It
	// carries the item's logical size, its timestamp, the channel it was
	// produced into, and its provenance (the input items consumed by the
	// iteration that produced it). An item's live interval for footprint
	// accounting starts here.
	EvAlloc EventKind = iota
	// EvGet records a consumer connection retrieving the item.
	EvGet
	// EvSkip records a consumer connection passing over the item without
	// consuming it (get-latest semantics skipped stale data).
	EvSkip
	// EvFree records the garbage collector reclaiming the item, ending
	// its live interval.
	EvFree
	// EvIter records the completion of one thread loop iteration with its
	// compute time (blocking excluded) and the items it produced.
	EvIter
	// EvEmit records a pipeline output: a sink thread completed
	// processing of the listed consumed items (one displayed frame for
	// the tracker's GUI).
	EvEmit
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvAlloc:
		return "alloc"
	case EvGet:
		return "get"
	case EvSkip:
		return "skip"
	case EvFree:
		return "free"
	case EvIter:
		return "iter"
	case EvEmit:
		return "emit"
	default:
		return "unknown"
	}
}

// Event is one trace record. Field usage depends on Kind; unused fields
// are zero, and a Recorder keeps only the fields the kind uses.
type Event struct {
	Kind EventKind
	// At is the runtime-clock time of the event.
	At time.Duration
	// Item is the subject item (EvAlloc/EvGet/EvSkip/EvFree).
	Item ItemID
	// Node is the channel or queue holding the item (EvAlloc/EvGet/
	// EvSkip/EvFree).
	Node graph.NodeID
	// Thread is the acting thread (EvAlloc producer, EvGet/EvSkip
	// consumer, EvIter/EvEmit subject).
	Thread graph.NodeID
	// TS is the item's virtual timestamp (EvAlloc).
	TS vt.Timestamp
	// Size is the item's logical size in bytes (EvAlloc).
	Size int64
	// Compute is the iteration's execution time excluding blocking and
	// throttle sleep (EvIter).
	Compute time.Duration
	// Blocked is the time the iteration spent waiting on inputs (EvIter).
	Blocked time.Duration
	// Items lists provenance inputs (EvAlloc), items produced (EvIter),
	// or items consumed for an output (EvEmit).
	Items []ItemID
}

// rec is one event as the recorder stores it: fixed size and free of
// pointers, so the garbage collector never scans the log and storing a
// record needs no write barrier. The two words w0 and w1 hold what the
// kind uses (TS and Size for an alloc, Compute and Blocked for an iter),
// and the provenance list lies in the id arena as (chunk, offset,
// length).
type rec struct {
	at            time.Duration
	item          ItemID
	node          graph.NodeID
	thread        graph.NodeID
	w0, w1        int64
	idc, ido, idn uint32
	kind          EventKind
}

// chunkShift sizes the record chunks: chunkSize records each. Chunks are
// allocated at full length and never reallocated, so recording never
// copies old records and a reader holding a chunk sees a stable prefix.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
)

// idChunkSize is the number of provenance ids one arena chunk holds; a
// longer list gets a chunk of its own length.
const idChunkSize = 4096

// eventLog is a trace as records: every chunk but the last full, and the
// provenance arena the records point into. The record at log position p
// is chunks[p>>chunkShift][p&(chunkSize-1)], for p < n.
type eventLog struct {
	chunks [][]rec
	ids    [][]ItemID
	idLen  int // ids used in the last arena chunk
	n      int
	// allocs counts the EvAlloc records, end is the latest event time,
	// and disordered says some record is earlier than one before it.
	allocs     int
	end        time.Duration
	disordered bool
}

// at returns the record at log position p.
func (l *eventLog) at(p int) *rec { return &l.chunks[p>>chunkShift][p&(chunkSize-1)] }

// append stores ev as a record, copying its provenance into the arena.
func (l *eventLog) append(ev *Event) {
	if l.n>>chunkShift == len(l.chunks) {
		l.chunks = append(l.chunks, make([]rec, chunkSize))
	}
	r := l.at(l.n)
	*r = rec{at: ev.At, item: ev.Item, node: ev.Node, thread: ev.Thread, kind: ev.Kind}
	switch ev.Kind {
	case EvAlloc:
		r.w0, r.w1 = int64(ev.TS), ev.Size
		l.allocs++
	case EvIter:
		r.w0, r.w1 = int64(ev.Compute), int64(ev.Blocked)
	}
	if k := len(ev.Items); k > 0 {
		if len(l.ids) == 0 || len(l.ids[len(l.ids)-1])-l.idLen < k {
			l.ids = append(l.ids, make([]ItemID, max(idChunkSize, k)))
			l.idLen = 0
		}
		c := len(l.ids) - 1
		copy(l.ids[c][l.idLen:], ev.Items)
		r.idc, r.ido, r.idn = uint32(c), uint32(l.idLen), uint32(k)
		l.idLen += k
	}
	if l.n == 0 || ev.At > l.end {
		l.end = ev.At
	} else if ev.At < l.end {
		l.disordered = true
	}
	l.n++
}

// items returns r's provenance list in the arena, capped at its length
// so an append on it cannot overwrite the next list; nil if empty.
func (l *eventLog) items(r *rec) []ItemID {
	if r.idn == 0 {
		return nil
	}
	lo, hi := r.ido, r.ido+r.idn
	return l.ids[r.idc][lo:hi:hi]
}

// event expands the record at position p.
func (l *eventLog) event(p int) Event {
	r := l.at(p)
	ev := Event{Kind: r.kind, At: r.at, Item: r.item, Node: r.node, Thread: r.thread, Items: l.items(r)}
	switch r.kind {
	case EvAlloc:
		ev.TS, ev.Size = vt.Timestamp(r.w0), r.w1
	case EvIter:
		ev.Compute, ev.Blocked = time.Duration(r.w0), time.Duration(r.w1)
	}
	return ev
}

// snapshot returns the log as of now. It copies the chunk headers only:
// the records and ids below n are never written again, so the copy is a
// consistent prefix of the log while appends go on.
func (l *eventLog) snapshot() eventLog {
	s := *l
	s.chunks = slices.Clone(l.chunks)
	s.ids = slices.Clone(l.ids)
	return s
}

// packEvents stores an explicit event list as a log.
func packEvents(events []Event) eventLog {
	var l eventLog
	for i := range events {
		l.append(&events[i])
	}
	return l
}

// Recorder collects events. It is safe for concurrent use. A nil
// *Recorder is valid and discards everything, so tracing can be disabled
// without branching at call sites.
//
// The recorder is one append log under one mutex, so append order is lock
// order and a causally ordered pair of appends keeps its order. Events
// are stored as pointer-free records and every provenance list is copied
// into a chunked id arena, so callers may reuse their slices and
// recording costs no allocation per event. Analyze reads the chunks
// where they lie.
type Recorder struct {
	mu     sync.Mutex
	log    eventLog // guarded by mu
	nextID atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewItemID allocates a fresh unique item id, starting at 1. Valid on a
// nil recorder, which hands out ids without recording anything.
func (r *Recorder) NewItemID() ItemID {
	if r == nil {
		return NoItem
	}
	return ItemID(r.nextID.Add(1))
}

// Append records one event. A nil recorder discards it. ev.Items is
// copied into the recorder's arena, so the caller may reuse its slice;
// an empty list is recorded as nil. Only the fields ev.Kind uses are
// kept.
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.log.append(&ev)
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.n
}

// snapshot returns the log as of now; an empty one for a nil recorder.
func (r *Recorder) snapshot() eventLog {
	if r == nil {
		return eventLog{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.snapshot()
}

// Events returns a copy of the recorded events in append order. Their
// Items share the recorder's arena, whose stored lists are never written
// again. Only persisting and reporting need the copy; Analyze reads the
// records in place.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.log.n)
	for p := range out {
		out[p] = r.log.event(p)
	}
	return out
}
