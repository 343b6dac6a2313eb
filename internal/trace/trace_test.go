package trace

import (
	"sync"
	"testing"
	"time"

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
// sharded implementation: append order is reconstructed exactly, even
// when the history spans many chunks.
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
// in the merged Events() view, whatever shard each landed in.
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
// are in flight. An append that has reserved its sequence number but not
// yet stored its event leaves a gap, which Events() must close up: every
// snapshot is the append order of what was stored, with no zero-value
// holes, and once the appends stop it holds every event.
func TestRecorderEventsWhileAppending(t *testing.T) {
	t.Run("reserved", func(t *testing.T) {
		r := NewRecorder()
		for i := 1; i <= 3; i++ {
			r.Append(Event{Kind: EvGet, Item: ItemID(i)})
		}
		inflight := r.seq.Add(1) // an Append between reserving and storing
		r.Append(Event{Kind: EvGet, Item: 5})
		assertItems(t, r.Events(), 1, 2, 3, 5)
		r.shards[0].appendEntry(entry{seq: inflight, ev: Event{Kind: EvGet, Item: 4}})
		assertItems(t, r.Events(), 1, 2, 3, 4, 5)
	})
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

func assertItems(t *testing.T, evs []Event, want ...ItemID) {
	t.Helper()
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Item != want[i] {
			t.Fatalf("event %d has item %d, want %d", i, ev.Item, want[i])
		}
	}
}

// TestRecorderEventsAllocs pins the snapshot's allocations: Events()
// places entries by sequence number into slices it allocates once, so the
// count does not grow with the number of events, chunks or shards.
func TestRecorderEventsAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{chunkSize, 40 * chunkSize} {
		r := dealtRecorder(n, 7, 1)
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

// dealtRecorder returns a recorder holding n events (item i at sequence
// number i+1) dealt round-robin over the given number of shards in runs
// of run consecutive sequence numbers.
func dealtRecorder(n, shards, run int) *Recorder {
	r := NewRecorder()
	r.shards = make([]*shard, shards)
	for i := range r.shards {
		r.shards[i] = &shard{}
	}
	for i := 0; i < n; i++ {
		seq := r.seq.Add(1)
		r.shards[i/run%shards].appendEntry(entry{seq: seq, ev: Event{Kind: EvGet, Item: ItemID(i)}})
	}
	return r
}

var _ = graph.NodeID(0) // keep import honest in minimal builds
