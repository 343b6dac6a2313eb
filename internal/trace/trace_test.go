package trace

import (
	"bytes"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Append(Event{Kind: EvAlloc}) // must not panic
	if r.Len() != 0 {
		t.Error("nil recorder must report 0 events")
	}
	if r.Events() != nil {
		t.Error("nil recorder must return nil events")
	}
	if r.NewItemID() != NoItem {
		t.Error("nil recorder must hand out NoItem")
	}
}

func TestRecorderAppendAndSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Append(Event{Kind: EvAlloc, Item: 1})
	r.Append(Event{Kind: EvFree, Item: 1})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != EvAlloc || evs[1].Kind != EvFree {
		t.Fatalf("Events = %+v", evs)
	}
	// Snapshot must be independent of later appends.
	r.Append(Event{Kind: EvGet})
	if len(evs) != 2 {
		t.Error("snapshot must not grow")
	}
}

// TestRecorderFirstItemID pins the id sequence start: the first item of
// a run must be 1 (ids used to start at 2 because the counter was
// initialized to 1 and then pre-incremented).
func TestRecorderFirstItemID(t *testing.T) {
	r := NewRecorder()
	if id := r.NewItemID(); id != ItemID(1) {
		t.Fatalf("first NewItemID = %d, want 1", id)
	}
	if id := r.NewItemID(); id != ItemID(2) {
		t.Fatalf("second NewItemID = %d, want 2", id)
	}
}

// TestRecorderOrderAcrossChunks pins the Events() contract over the
// chunked log: append order is kept exactly, even when the history spans
// many chunks.
func TestRecorderOrderAcrossChunks(t *testing.T) {
	r := NewRecorder()
	const n = 3*chunkSize + 17
	for i := 0; i < n; i++ {
		r.Append(Event{Kind: EvGet, Item: ItemID(i)})
	}
	evs := r.Events()
	if len(evs) != n {
		t.Fatalf("len = %d, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Item != ItemID(i) {
			t.Fatalf("event %d has item %d; append order not preserved", i, ev.Item)
		}
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
}

// TestRecorderCausalOrderConcurrent checks that causally ordered appends
// (alloc handed off to a consumer which then records a get) never invert
// in the Events() view, whichever goroutine appended them.
func TestRecorderCausalOrderConcurrent(t *testing.T) {
	r := NewRecorder()
	const items = 200
	ch := make(chan ItemID, items)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for i := 0; i < items; i++ {
			id := r.NewItemID()
			r.Append(Event{Kind: EvAlloc, Item: id})
			ch <- id
		}
		close(ch)
	}()
	go func() { // consumer
		defer wg.Done()
		for id := range ch {
			r.Append(Event{Kind: EvGet, Item: id})
		}
	}()
	wg.Wait()
	pos := map[ItemID]int{}
	for i, ev := range r.Events() {
		if ev.Kind == EvAlloc {
			pos[ev.Item] = i
		}
		if ev.Kind == EvGet {
			allocAt, ok := pos[ev.Item]
			if !ok {
				t.Fatalf("get of item %d before its alloc", ev.Item)
			}
			if allocAt >= i {
				t.Fatalf("alloc at %d not before get at %d", allocAt, i)
			}
		}
	}
}

func TestRecorderUniqueIDs(t *testing.T) {
	r := NewRecorder()
	const n = 64
	ids := make(chan ItemID, n*8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ids <- r.NewItemID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[ItemID]bool{}
	for id := range ids {
		if id == NoItem {
			t.Fatal("NewItemID returned NoItem")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EvAlloc: "alloc", EvGet: "get", EvSkip: "skip",
		EvFree: "free", EvIter: "iter", EvEmit: "emit",
		EventKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestRecorderConcurrentAppend(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Append(Event{Kind: EvGet, At: time.Duration(g*100 + i)})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("Len = %d, want 800", r.Len())
	}
}

// TestRecorderEventsWhileAppending checks snapshots taken while appends
// are in flight: every snapshot is the append order of what was stored,
// with no zero-value holes, and once the appends stop it holds every
// event.
func TestRecorderEventsWhileAppending(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		r := NewRecorder()
		const writers, per = 4, 5000
		var wg sync.WaitGroup
		for g := 1; g <= writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 1; i <= per; i++ {
					r.Append(Event{Kind: EvGet, Thread: graph.NodeID(g), Item: ItemID(i)})
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for snapshots := 0; ; snapshots++ {
			select {
			case <-done:
				evs := r.Events()
				if len(evs) != writers*per {
					t.Fatalf("after the appends: %d events, want %d", len(evs), writers*per)
				}
				checkWriterPrefixes(t, evs, writers)
				t.Logf("%d snapshots during the appends", snapshots)
				return
			default:
			}
			checkWriterPrefixes(t, r.Events(), writers)
		}
	})
}

// checkWriterPrefixes asserts that each writer's events in a snapshot are
// its items 1, 2, 3, ... in order. A writer appends sequentially, so any
// later item in the snapshot proves its earlier ones were stored first.
func checkWriterPrefixes(t *testing.T, evs []Event, writers int) {
	t.Helper()
	next := make([]ItemID, writers+1)
	for i := range next {
		next[i] = 1
	}
	for i, ev := range evs {
		g := int(ev.Thread)
		if g < 1 || g > writers {
			t.Fatalf("event %d of %d is a hole: %+v", i, len(evs), ev)
		}
		if ev.Item != next[g] {
			t.Fatalf("event %d: writer %d item %d, want %d", i, g, ev.Item, next[g])
		}
		next[g]++
	}
}

// TestRecorderEventsAllocs pins the snapshot's allocations: Events()
// copies the chunks into one slice it allocates once, so the count does
// not grow with the number of events or chunks. The collector is held
// off for the measurement: a GC cycle that a multi-megabyte snapshot
// starts (every other call under the race detector) adds its own
// mallocs to the process-wide count.
func TestRecorderEventsAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{chunkSize, 40 * chunkSize} {
		r := filledRecorder(n)
		allocs := testing.AllocsPerRun(20, func() {
			if len(r.Events()) != n {
				panic("short snapshot")
			}
		})
		if allocs > 2 {
			t.Errorf("Events() over %d events: %v allocs, want at most 2", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("Events() allocs grew with the event count: %v", counts)
	}
}

// filledRecorder returns a recorder holding n events, item i at index i.
func filledRecorder(n int) *Recorder {
	r := NewRecorder()
	for i := 0; i < n; i++ {
		r.Append(Event{Kind: EvGet, Item: ItemID(i)})
	}
	return r
}

var _ = graph.NodeID(0) // keep import honest in minimal builds

// TestAppendCopiesItems pins the provenance contract of Append: the
// recorder keeps its own copy of every Items list in its arena.
func TestAppendCopiesItems(t *testing.T) {
	ids := func(from, n int) []ItemID {
		out := make([]ItemID, n)
		for i := range out {
			out[i] = ItemID(from + i)
		}
		return out
	}
	r := NewRecorder()

	// A caller reusing its slice after Append leaves the event alone.
	buf := ids(1, 3)
	r.Append(Event{Kind: EvIter, Items: buf})
	r.Append(Event{Kind: EvIter, Items: ids(10, 2)})
	copy(buf, ids(100, 3))

	// Empty lists come back nil.
	r.Append(Event{Kind: EvIter, Items: []ItemID{}})
	r.Append(Event{Kind: EvIter})

	// Fill the arena chunk to two ids short, then a list that does not
	// fit opens a new chunk, and one longer than a whole chunk gets its
	// own.
	r.Append(Event{Kind: EvIter, Items: ids(1000, idChunkSize-5-2)})
	r.Append(Event{Kind: EvIter, Items: ids(20000, 3)})
	r.Append(Event{Kind: EvIter, Items: ids(30000, idChunkSize+10)})
	r.Append(Event{Kind: EvIter, Items: ids(50000, 1)})

	// reflect.DeepEqual tells a nil list from an empty one.
	want := [][]ItemID{
		ids(1, 3), ids(10, 2), nil, nil,
		ids(1000, idChunkSize-5-2), ids(20000, 3), ids(30000, idChunkSize+10), ids(50000, 1),
	}
	evs := r.Events()
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if !reflect.DeepEqual(ev.Items, want[i]) {
			t.Errorf("event %d: Items = %v, want %v", i, ev.Items, want[i])
		}
	}

	// An append on a returned list cannot overwrite its arena neighbour.
	_ = append(evs[0].Items, 77, 78)
	_ = append(evs[5].Items, 79)
	again := r.Events()
	for i := range want {
		if !reflect.DeepEqual(again[i].Items, want[i]) {
			t.Errorf("after appends on returned lists: event %d Items = %v, want %v", i, again[i].Items, want[i])
		}
	}

	// persist round-trips the events unchanged.
	var out bytes.Buffer
	if err := Write(&out, again); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, again) {
		t.Fatalf("persist round trip changed the events")
	}
}

// TestAnalyzeWhileAppending runs the in-place pass while appends go on:
// each Analyze sees a prefix of the log, so the item count never falls,
// and once the appends stop it sees every item.
func TestAnalyzeWhileAppending(t *testing.T) {
	r := NewRecorder()
	const writers, per = 4, 3000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inputs []ItemID
			for i := 0; i < per; i++ {
				id := r.NewItemID()
				r.Append(Event{Kind: EvAlloc, At: time.Duration(i), Item: id, Size: 1, Items: inputs})
				inputs = append(inputs[:0], id)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := 0
	for {
		select {
		case <-done:
			a, err := Analyze(r, AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if a.ItemsTotal != writers*per {
				t.Fatalf("after the appends: %d items, want %d", a.ItemsTotal, writers*per)
			}
			return
		default:
		}
		a, err := Analyze(r, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.ItemsTotal < last {
			t.Fatalf("item count fell from %d to %d", last, a.ItemsTotal)
		}
		last = a.ItemsTotal
	}
}

// TestRecordCompact pins the stored form of an event: at most 64 bytes
// and no pointers, so the collector never scans the log.
func TestRecordCompact(t *testing.T) {
	if n := unsafe.Sizeof(rec{}); n > 64 {
		t.Errorf("rec is %d bytes, want at most 64", n)
	}
	typ := reflect.TypeOf(rec{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint8, reflect.Uint32:
		default:
			t.Errorf("rec.%s is a %v", f.Name, f.Type)
		}
	}
}
