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
// are zero.
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

// chunkSize is the number of events held by one recorder chunk. Chunks
// are append-only and never reallocated, so recording never copies old
// events and a reader holding a chunk header sees a stable prefix.
const chunkSize = 1024

// idChunkSize is the number of provenance ids one arena chunk holds; a
// longer list gets a chunk of its own length.
const idChunkSize = 4096

// Recorder collects events. It is safe for concurrent use. A nil
// *Recorder is valid and discards everything, so tracing can be disabled
// without branching at call sites.
//
// The recorder is one append log: a mutex-guarded list of event chunks,
// so append order is lock order and a causally ordered pair of appends
// keeps its order. Every provenance list is copied into a chunked id
// arena, so callers may reuse their slices and recording costs no
// allocation per event. Analyze reads the chunks where they lie.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event // guarded by mu; every chunk but the last is full
	ids    []ItemID  // guarded by mu; the current provenance arena chunk
	n      int       // guarded by mu; events recorded
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
// an empty list is recorded as nil.
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Items = r.storeIDs(ev.Items)
	k := len(r.chunks)
	if k == 0 || len(r.chunks[k-1]) == chunkSize {
		r.chunks = append(r.chunks, make([]Event, 0, chunkSize))
		k++
	}
	r.chunks[k-1] = append(r.chunks[k-1], ev)
	r.n++
	r.mu.Unlock()
}

// storeIDs copies ids into the arena and returns the copy, capped at its
// length so an append on it cannot overwrite the next list. The caller
// holds r.mu.
func (r *Recorder) storeIDs(ids []ItemID) []ItemID {
	if len(ids) == 0 {
		return nil
	}
	if cap(r.ids)-len(r.ids) < len(ids) {
		r.ids = make([]ItemID, 0, max(idChunkSize, len(ids)))
	}
	off := len(r.ids)
	r.ids = append(r.ids, ids...)
	return r.ids[off:len(r.ids):len(r.ids)]
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// segments returns the recorded chunks as of now. The copy holds the
// chunk headers only: chunks are append-only, so the events under them
// never change and the copy is a consistent prefix of the log while
// appends go on.
func (r *Recorder) segments() [][]Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.chunks)
}

// Events returns a copy of the recorded events in append order. Their
// Items share the recorder's arena, whose stored lists are never written
// again. Only persisting and reporting need the copy; Analyze reads the
// chunks in place.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}
