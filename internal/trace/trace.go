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
	"runtime"
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

// chunkSize is the number of events held by one shard chunk. Chunks are
// append-only and never reallocated, so recording never copies old
// events (the single-slice design paid an amortized memmove of the whole
// history on every growth).
const chunkSize = 1024

// entry is one recorded event tagged with its global append sequence
// number, which defines the total order Events() reconstructs.
type entry struct {
	seq int64
	ev  Event
}

// shard is one append-only event buffer. Shards are owned by the
// recorder; goroutines acquire temporary affinity to a shard through a
// sync.Pool, so in steady state each P appends to its own shard and the
// shard mutex is uncontended.
type shard struct {
	mu     sync.Mutex
	chunks [][]entry
}

// appendEntry adds one entry to the shard's current chunk, opening a new
// chunk when full.
func (s *shard) appendEntry(e entry) {
	s.mu.Lock()
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == chunkSize {
		s.chunks = append(s.chunks, make([]entry, 0, chunkSize))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], e)
	s.mu.Unlock()
}

// Recorder collects events. It is safe for concurrent use. A nil
// *Recorder is valid and discards everything, so tracing can be disabled
// without branching at call sites.
//
// Internally the recorder is sharded: every Append reserves a global
// sequence number with one atomic increment and stores the event in a
// per-P (pool-affine) chunked buffer, so concurrent thread goroutines do
// not serialize on a single mutex and recording never rewrites history
// to grow a slice. Sequence numbers are dense from 1, so Events() puts
// every stored event straight back at its place in the global append
// order, preserving the original single-buffer contract for the
// analyze/persist consumers.
type Recorder struct {
	shards []*shard
	pool   sync.Pool
	seq    atomic.Int64 // global append order; also counts appends
	nextID atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	r := &Recorder{shards: make([]*shard, n)}
	for i := range r.shards {
		r.shards[i] = &shard{}
	}
	// The pool hands goroutines shard affinity. If the GC drops pooled
	// entries, New re-issues shards round-robin; events already stored
	// are owned by r.shards and are never lost.
	var next atomic.Int64
	r.pool.New = func() any {
		return r.shards[int(next.Add(1)-1)%len(r.shards)]
	}
	return r
}

// NewItemID allocates a fresh unique item id, starting at 1. Valid on a
// nil recorder, which hands out ids without recording anything.
func (r *Recorder) NewItemID() ItemID {
	if r == nil {
		return NoItem
	}
	return ItemID(r.nextID.Add(1))
}

// Append records one event. A nil recorder discards it.
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	sh := r.pool.Get().(*shard)
	sh.appendEntry(entry{seq: seq, ev: ev})
	r.pool.Put(sh)
}

// Len returns the number of recorded events: the number of Append calls
// that have reserved a sequence number, so an append still in flight is
// already counted.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(r.seq.Load())
}

// Events returns a snapshot copy of the recorded events in append order
// (the order in which Append calls reserved their sequence numbers; for
// causally ordered appends this matches the old single-mutex order
// exactly). Every stored event is written to out[seq-1], so the snapshot
// costs one pass over the shards and no sort; it runs only at
// analyze/persist time, never on the recording hot path.
//
// An append in flight has reserved its number but may not have stored its
// event yet. Such gaps are closed up, so a snapshot taken during a run is
// the append order of what was stored.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	out := make([]Event, n)
	filled := make([]bool, n)
	var placed int64
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, c := range sh.chunks {
			for i := range c {
				// Entries reserved after the load fall outside this snapshot.
				if s := c[i].seq; s <= n {
					out[s-1] = c[i].ev
					filled[s-1] = true
					placed++
				}
			}
		}
		sh.mu.Unlock()
	}
	if placed == n {
		return out
	}
	k := 0
	for i := range out {
		if filled[i] {
			out[k] = out[i]
			k++
		}
	}
	clear(out[k:])
	return out[:k]
}
