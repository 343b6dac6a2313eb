package channel

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/vt"
)

const (
	prodConn  = graph.ConnID(0)
	consConn  = graph.ConnID(1)
	consConn2 = graph.ConnID(2)
)

func newTestChannel(coll gc.Collector) *Channel {
	c := New(Config{Name: "test", Node: 1, Clock: clock.NewReal(), Collector: coll})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	return c
}

func put(t *testing.T, c *Channel, ts vt.Timestamp, size int64) *Item {
	t.Helper()
	it := &Item{TS: ts, Size: size, Payload: int(ts)}
	if _, err := c.Put(prodConn, it); err != nil {
		t.Fatalf("Put(%v): %v", ts, err)
	}
	return it
}

func TestPutGetLatestBasic(t *testing.T) {
	c := newTestChannel(nil)
	put(t, c, 1, 100)
	put(t, c, 2, 100)
	put(t, c, 3, 100)

	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 3 {
		t.Fatalf("got ts %v, want 3 (latest)", res.Item.TS)
	}
	if len(res.Skipped) != 2 || res.Skipped[0].TS != 1 || res.Skipped[1].TS != 2 {
		t.Fatalf("Skipped = %v", res.Skipped)
	}
	if g := c.Guarantee(consConn); g != 3 {
		t.Fatalf("guarantee = %v, want 3", g)
	}
}

func TestGetLatestBlocksUntilPut(t *testing.T) {
	c := newTestChannel(nil)
	got := make(chan vt.Timestamp, 1)
	go func() {
		res, err := c.Get(consConn)
		if err != nil {
			got <- vt.None
			return
		}
		got <- res.Item.TS
	}()
	time.Sleep(5 * time.Millisecond) // let the getter block
	put(t, c, 7, 10)
	select {
	case ts := <-got:
		if ts != 7 {
			t.Fatalf("got %v, want 7", ts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetLatest never woke")
	}
}

func TestGetLatestReportsBlockedTime(t *testing.T) {
	c := newTestChannel(nil)
	done := make(chan GetResult, 1)
	go func() {
		res, _ := c.Get(consConn)
		done <- res
	}()
	time.Sleep(20 * time.Millisecond)
	put(t, c, 1, 10)
	res := <-done
	if res.Blocked < 10*time.Millisecond {
		t.Fatalf("Blocked = %v, want ≥ ~20ms", res.Blocked)
	}
}

func TestGetLatestNeverRegresses(t *testing.T) {
	c := newTestChannel(nil)
	put(t, c, 5, 10)
	if res, _ := c.Get(consConn); res.Item.TS != 5 {
		t.Fatal("first get")
	}
	// A second GetLatest must not return ts 5 again; it blocks for >5.
	got := make(chan vt.Timestamp, 1)
	go func() {
		res, err := c.Get(consConn)
		if err != nil {
			got <- vt.None
			return
		}
		got <- res.Item.TS
	}()
	time.Sleep(5 * time.Millisecond)
	put(t, c, 6, 10)
	if ts := <-got; ts != 6 {
		t.Fatalf("got %v, want 6", ts)
	}
}

func TestGetExact(t *testing.T) {
	c := newTestChannel(nil)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	res, err := c.GetAt(consConn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 1 || len(res.Skipped) != 0 {
		t.Fatalf("Get(1) = %+v", res)
	}
	// Guarantee advanced to 1; Get(1) again must fail ErrPassed.
	if _, err := c.GetAt(consConn, 1); !errors.Is(err, ErrPassed) {
		t.Fatalf("replay Get err = %v", err)
	}
	// Get of a skipped-past-by-producer timestamp fails ErrGone.
	if _, err := c.GetAt(consConn, 0); !errors.Is(err, ErrPassed) {
		// ts 0 < guarantee 1 → passed
		t.Fatalf("Get(0) err = %v", err)
	}
}

func TestGetGoneWhenProducerMovedPast(t *testing.T) {
	c := newTestChannel(nil)
	put(t, c, 5, 10)
	// ts 3 was never produced and the producer is already at 5.
	if _, err := c.GetAt(consConn, 3); !errors.Is(err, ErrGone) {
		t.Fatalf("err = %v, want ErrGone", err)
	}
}

func TestPutDuplicateFails(t *testing.T) {
	c := newTestChannel(nil)
	put(t, c, 1, 10)
	if _, err := c.Put(prodConn, &Item{TS: 1}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestUnattachedConnections(t *testing.T) {
	c := newTestChannel(nil)
	if _, err := c.Put(graph.ConnID(99), &Item{TS: 1}); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("unattached put err = %v", err)
	}
	if _, err := c.Get(graph.ConnID(99)); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("unattached get err = %v", err)
	}
	if _, err := c.GetAt(graph.ConnID(99), 1); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("unattached exact get err = %v", err)
	}
}

func TestCloseWakesBlockedGetters(t *testing.T) {
	c := newTestChannel(nil)
	errs := make(chan error, 1)
	go func() {
		_, err := c.Get(consConn)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake getter")
	}
	if _, err := c.Put(prodConn, &Item{TS: 9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close err = %v", err)
	}
	c.Close() // idempotent
}

func TestCloseFreesLiveItems(t *testing.T) {
	var freed []vt.Timestamp
	var mu sync.Mutex
	c := New(Config{Name: "t", Clock: clock.NewReal(), OnFree: func(it *Item) {
		mu.Lock()
		freed = append(freed, it.TS)
		mu.Unlock()
	}})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(freed) != 2 {
		t.Fatalf("freed = %v", freed)
	}
	if st := c.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy after close = %d items, %d bytes", st.Items, st.Bytes)
	}
}

func TestDGCCollectsOnConsumption(t *testing.T) {
	var freed []vt.Timestamp
	var mu sync.Mutex
	c := New(Config{
		Name: "t", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp(),
		OnFree: func(it *Item) {
			mu.Lock()
			freed = append(freed, it.TS)
			mu.Unlock()
		},
	})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	for ts := vt.Timestamp(1); ts <= 5; ts++ {
		put(t, c, ts, 100)
	}
	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 5 {
		t.Fatalf("consumed %v", res.Item.TS)
	}
	mu.Lock()
	nf := len(freed)
	mu.Unlock()
	// All five items (1..4 skipped + 5 consumed) are dead under DGC with
	// a single consumer at guarantee 5.
	if nf != 5 {
		t.Fatalf("freed %d items, want 5 (%v)", nf, freed)
	}
	if st := c.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d after full collection", st.Items, st.Bytes)
	}
}

func TestDGCWaitsForSlowestConsumer(t *testing.T) {
	c := New(Config{Name: "t", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	c.AttachConsumer(consConn2, 1)
	for ts := vt.Timestamp(1); ts <= 3; ts++ {
		put(t, c, ts, 100)
	}
	if _, err := c.Get(consConn); err != nil { // fast consumer at 3
		t.Fatal(err)
	}
	// Slow consumer hasn't consumed: nothing may be freed.
	if n := c.Stats().Items; n != 3 {
		t.Fatalf("occupancy = %d, want 3 (slow consumer holds items)", n)
	}
	if _, err := c.Get(consConn2); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().Items; n != 0 {
		t.Fatalf("occupancy = %d, want 0 after both consumed", n)
	}
}

func TestDetachConsumerReleasesItems(t *testing.T) {
	c := New(Config{Name: "t", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	c.AttachConsumer(consConn2, 1)
	put(t, c, 1, 100)
	if _, err := c.Get(consConn); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().Items; n != 1 {
		t.Fatal("second consumer must retain the item")
	}
	c.DetachConsumer(consConn2)
	if n := c.Stats().Items; n != 0 {
		t.Fatal("detach must release retained items")
	}
}

func TestGetGoneAfterCollection(t *testing.T) {
	c := New(Config{Name: "t", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	c.AttachConsumer(consConn2, 1)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	// Consumer 1 takes latest (2): item 1 skipped but retained for c2.
	if _, err := c.Get(consConn); err != nil {
		t.Fatal(err)
	}
	// Consumer 2 also takes latest: item 1 now dead and freed.
	if res, err := c.Get(consConn2); err != nil || res.Item.TS != 2 {
		t.Fatal(err)
	}
	// A third consumer attached late cannot get item 1: it is gone.
	c3 := graph.ConnID(7)
	c.AttachConsumer(c3, 1)
	if _, err := c.GetAt(c3, 1); !errors.Is(err, ErrGone) {
		t.Fatalf("err = %v, want ErrGone", err)
	}
}

func TestCapacityBlocksPut(t *testing.T) {
	c := New(Config{Name: "t", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp(), Capacity: 2})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	done := make(chan time.Duration, 1)
	go func() {
		blocked, err := c.Put(prodConn, &Item{TS: 3, Size: 10})
		if err != nil {
			done <- -1
			return
		}
		done <- blocked
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("put must block while full")
	default:
	}
	// Consuming frees both items (DGC) and unblocks the put.
	if _, err := c.Get(consConn); err != nil {
		t.Fatal(err)
	}
	select {
	case blocked := <-done:
		if blocked < 10*time.Millisecond {
			t.Fatalf("blocked = %v, want ≥ ~20ms", blocked)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put never unblocked")
	}
}

func TestStatsAndOccupancy(t *testing.T) {
	c := newTestChannel(gc.NewDeadTimestamp())
	put(t, c, 1, 100)
	put(t, c, 2, 50)
	if st := c.Stats(); st.Items != 2 || st.Bytes != 150 {
		t.Fatalf("occupancy = %d/%d", st.Items, st.Bytes)
	}
	if _, err := c.Get(consConn); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	puts, frees := st.Puts, st.Frees
	if puts != 2 || frees != 2 {
		t.Fatalf("stats = %d/%d", puts, frees)
	}
	if g := c.Guarantee(graph.ConnID(42)); g != vt.None {
		t.Fatalf("unknown conn guarantee = %v", g)
	}
}

func TestFreedItemDropsPayload(t *testing.T) {
	c := newTestChannel(gc.NewDeadTimestamp())
	it := put(t, c, 1, 100)
	if _, err := c.Get(consConn); err != nil {
		t.Fatal(err)
	}
	if it.Payload != nil {
		t.Error("freed item must drop its payload")
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	c := New(Config{Name: "t", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	const producers = 1
	const consumers = 3
	for p := 0; p < producers; p++ {
		c.AttachProducer(graph.ConnID(p))
	}
	for k := 0; k < consumers; k++ {
		c.AttachConsumer(graph.ConnID(100+k), 1)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := vt.Timestamp(1); ts <= 200; ts++ {
			if _, err := c.Put(graph.ConnID(0), &Item{TS: ts, Size: 1}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		c.Close()
	}()
	for k := 0; k < consumers; k++ {
		wg.Add(1)
		go func(conn graph.ConnID) {
			defer wg.Done()
			last := vt.None
			for {
				res, err := c.Get(conn)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if res.Item.TS <= last {
					t.Errorf("non-monotone consumption: %v after %v", res.Item.TS, last)
					return
				}
				last = res.Item.TS
			}
		}(graph.ConnID(100 + k))
	}
	wg.Wait()
	if st := c.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("leftover occupancy %d/%d", st.Items, st.Bytes)
	}
}

func TestWouldBeDead(t *testing.T) {
	c := newTestChannel(gc.NewDeadTimestamp())
	c.AttachConsumer(consConn2, 1)
	// No consumption yet: nothing is provably dead.
	if c.WouldBeDead(1) {
		t.Error("ts 1 must not be dead before any consumption")
	}
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	if _, err := c.Get(consConn); err != nil { // consumer 1 at 2
		t.Fatal(err)
	}
	// Consumer 2 still at None: ts ≤ 2 not provably dead.
	if c.WouldBeDead(1) {
		t.Error("slow consumer keeps ts 1 potentially alive")
	}
	if _, err := c.Get(consConn2); err != nil { // consumer 2 at 2
		t.Fatal(err)
	}
	if !c.WouldBeDead(1) || !c.WouldBeDead(2) {
		t.Error("ts ≤ 2 must be dead once all consumers passed")
	}
	if c.WouldBeDead(3) {
		t.Error("future ts must not be dead")
	}
	c.Close()
	if !c.WouldBeDead(99) {
		t.Error("everything is dead on a closed channel")
	}
}

func TestWouldBeDeadNoConsumers(t *testing.T) {
	c := New(Config{Name: "t", Clock: clock.NewReal()})
	c.AttachProducer(prodConn)
	if c.WouldBeDead(1) {
		t.Error("a channel without consumers must not declare items dead")
	}
}
