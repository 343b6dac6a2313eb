package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from outside the program: around the calls the
// benchmark's own thread bodies make into the runtime, one iteration in
// sampleEvery, kept in memory and written out when the run ends. Each
// thread owns one preallocated buffer, so recording takes no lock and
// allocates nothing.

const (
	// One iteration in 61 is sampled, for spans and for latency stamps. A
	// prime, because the pipelines cycle — a 1024-slot ring fills and drains
	// in 16 batches of 64, a 1000-slot queue in 1000 items — and a stride
	// that divides the cycle (64 did) samples one phase of it for ever.
	sampleEvery = 61
	// Spans kept per thread; later ones are dropped. A pipeline
	// thread samples a few thousand iterations a second, a batch job opens
	// three spans per unit.
	threadSpans = 1 << 17
	batchSpans  = 1 << 12
)

// span is one timed call. Start and End are nanoseconds since the run's
// epoch; Item is the item timestamp and serves as the trace id; Parent is
// the id of the thread iteration (or the batch job) that made the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Item   int64  `json:"item"`
}

type spanLog struct {
	epoch time.Time
	on    atomic.Bool // sampling is live only while set

	mu      sync.Mutex
	threads []*spanBuf
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// spanBuf is one thread's span buffer. A nil *spanBuf is the untraced
// configuration: begin returns an iter that records nothing.
type spanBuf struct {
	log   *spanLog
	tid   uint64
	spans []span // up to its capacity; later spans are not kept
}

// thread registers a buffer of the given capacity for one goroutine. A nil
// log returns nil.
func (l *spanLog) thread(capacity int) *spanBuf {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := &spanBuf{log: l, tid: uint64(len(l.threads)+1) << 32, spans: make([]span, 0, capacity)}
	l.threads = append(l.threads, b)
	return b
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.log.epoch)) }

// iter is one recorded thread iteration or batch job: a parent span and the
// calls made inside it. The zero iter records nothing, so a body marks its
// calls unconditionally and pays one nil check each when it is not sampled.
type iter struct {
	b           *spanBuf
	id          uint64
	start, last int64
}

// begin opens iteration i of this thread if it is one of the sampled ones.
func (b *spanBuf) begin(i int64) iter {
	if b == nil || i%sampleEvery != 0 {
		return iter{}
	}
	return b.job()
}

// job opens a parent span whenever sampling is live, whatever its number.
func (b *spanBuf) job() iter {
	if !b.log.on.Load() || len(b.spans) == cap(b.spans) {
		return iter{}
	}
	b.spans = append(b.spans, span{}) // the parent's slot, filled by end
	now := b.now()
	return iter{b: b, id: b.tid | uint64(len(b.spans)), start: now, last: now}
}

// mark records the call that ran since the iteration began, or since the
// last mark or resume, under name.
func (it *iter) mark(name string, item int64) {
	if it.b == nil {
		return
	}
	b, now := it.b, it.b.now()
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, span{Name: name, Start: it.last, End: now, ID: b.tid | uint64(len(b.spans)+1), Parent: it.id, Item: item})
	}
	it.last = now
}

// resume restarts the clock for the next mark after work of the body's own
// that belongs to no call.
func (it *iter) resume() {
	if it.b != nil {
		it.last = it.b.now()
	}
}

// end closes the parent span.
func (it *iter) end(name string, item int64) {
	if it.b != nil {
		it.b.spans[it.id&^it.b.tid-1] = span{Name: name, Start: it.start, End: it.b.now(), ID: it.id, Item: item}
	}
}

// all merges every thread's spans in start order. Call it only after the
// recording goroutines have exited.
func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var spans []span
	for _, b := range l.threads {
		for _, s := range b.spans {
			if s.Name != "" { // a parent whose iteration shutdown cut short stays blank
				spans = append(spans, s)
			}
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// durations groups span lengths in nanoseconds by name.
func durations(spans []span) map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start))
	}
	return by
}

// writeSpans stores the run's spans as benchmark/out/trace-<workload>.json.
func writeSpans(root, workload string, spans []span) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}

// stopSampling ends the traced interval; a nil log has none.
func (l *spanLog) stopSampling() {
	if l != nil {
		l.on.Store(false)
	}
}
