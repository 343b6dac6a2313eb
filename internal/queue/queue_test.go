package queue

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/vt"
)

const (
	prod = graph.ConnID(0)
	cons = graph.ConnID(1)
)

func newTestQueue(capacity int) *Queue {
	q := New(Config{Name: "q", Clock: clock.NewReal(), Capacity: capacity})
	q.AttachProducer(prod)
	q.AttachConsumer(cons, 1)
	return q
}

func TestFIFOOrder(t *testing.T) {
	q := newTestQueue(0)
	for ts := vt.Timestamp(1); ts <= 5; ts++ {
		if _, err := q.Put(prod, &Item{TS: ts, Size: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for want := vt.Timestamp(1); want <= 5; want++ {
		res, err := q.Get(cons)
		if err != nil {
			t.Fatal(err)
		}
		if res.Item.TS != want {
			t.Fatalf("dequeued %v, want %v", res.Item.TS, want)
		}
	}
	if st := q.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d", st.Items, st.Bytes)
	}
	if q.LastDequeued() != 5 {
		t.Fatalf("LastDequeued = %v", q.LastDequeued())
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	q := newTestQueue(0)
	got := make(chan vt.Timestamp, 1)
	go func() {
		res, err := q.Get(cons)
		if err != nil {
			got <- vt.None
			return
		}
		got <- res.Item.TS
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := q.Put(prod, &Item{TS: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case ts := <-got:
		if ts != 3 {
			t.Fatalf("got %v", ts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never woke")
	}
}

func TestGetReportsBlockedTime(t *testing.T) {
	q := newTestQueue(0)
	done := make(chan GetResult, 1)
	go func() {
		res, _ := q.Get(cons)
		done <- res
	}()
	time.Sleep(20 * time.Millisecond)
	q.Put(prod, &Item{TS: 1})
	if res := <-done; res.Blocked < 10*time.Millisecond {
		t.Fatalf("Blocked = %v", res.Blocked)
	}
}

func TestCapacityBlocksPut(t *testing.T) {
	q := newTestQueue(1)
	q.Put(prod, &Item{TS: 1})
	unblocked := make(chan struct{})
	go func() {
		q.Put(prod, &Item{TS: 2})
		close(unblocked)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-unblocked:
		t.Fatal("put must block while full")
	default:
	}
	if _, err := q.Get(cons); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("put never unblocked")
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	q := newTestQueue(0)
	q.Put(prod, &Item{TS: 1})
	q.Close()
	if res, err := q.Get(cons); err != nil || res.Item.TS != 1 {
		t.Fatalf("drain after close: %v/%v", res, err)
	}
	if _, err := q.Get(cons); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := q.Put(prod, &Item{TS: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close err = %v", err)
	}
	q.Close() // idempotent
}

func TestCloseWakesBlockedGetter(t *testing.T) {
	q := newTestQueue(0)
	errs := make(chan error, 1)
	go func() {
		_, err := q.Get(cons)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake getter")
	}
}

func TestUnattachedConnections(t *testing.T) {
	q := newTestQueue(0)
	if _, err := q.Put(graph.ConnID(9), &Item{}); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("put err = %v", err)
	}
	if _, err := q.Get(graph.ConnID(9)); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("get err = %v", err)
	}
}

func TestOnFreeAndDrain(t *testing.T) {
	var mu sync.Mutex
	var freed []vt.Timestamp
	q := New(Config{Name: "q", Clock: clock.NewReal(), OnFree: func(it *Item) {
		mu.Lock()
		freed = append(freed, it.TS)
		mu.Unlock()
	}})
	q.AttachProducer(prod)
	q.AttachConsumer(cons, 1)
	q.Put(prod, &Item{TS: 1, Size: 5})
	q.Put(prod, &Item{TS: 2, Size: 5})
	q.Get(cons)
	if n := q.Drain(); n != 1 {
		t.Fatalf("Drain = %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(freed) != 2 || freed[0] != 1 || freed[1] != 2 {
		t.Fatalf("freed = %v", freed)
	}
	if st := q.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d", st.Items, st.Bytes)
	}
}

func TestEachItemDeliveredOnce(t *testing.T) {
	q := New(Config{Name: "q", Clock: clock.NewReal()})
	q.AttachProducer(prod)
	consumers := []graph.ConnID{10, 11, 12}
	for _, c := range consumers {
		q.AttachConsumer(c, 1)
	}
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := vt.Timestamp(1); ts <= n; ts++ {
			if _, err := q.Put(prod, &Item{TS: ts, Size: 1}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		q.Close()
	}()
	var mu sync.Mutex
	seen := map[vt.Timestamp]int{}
	for _, c := range consumers {
		wg.Add(1)
		go func(c graph.ConnID) {
			defer wg.Done()
			for {
				res, err := q.Get(c)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				mu.Lock()
				seen[res.Item.TS]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("delivered %d distinct items, want %d", len(seen), n)
	}
	for ts, count := range seen {
		if count != 1 {
			t.Fatalf("item %v delivered %d times", ts, count)
		}
	}
	if q.Stats().Puts != n {
		t.Fatalf("Puts = %d", q.Stats().Puts)
	}
}

// TestBoundedStorage pushes a million pooled puts through a capacity-1000
// queue that keeps a standing backlog: its consumer takes the ten items
// put since the last get after every tenth put, so the queue is never
// drained and never full. Storage must stay bounded by the backlog, not
// by the number of items that ever passed through: the backing array
// within 2·capacity + 64 entries.
func TestBoundedStorage(t *testing.T) {
	const (
		puts     = 1_000_000
		capacity = 1000
		backlog  = capacity / 2
	)
	pool := buffer.NewItemPool()
	q := New(Config{Name: "bounded", Clock: clock.NewReal(), Capacity: capacity, Pool: pool})
	q.AttachProducer(prod)
	q.AttachConsumer(cons, 1)
	var dst [10]GetResult
	for i := 1; i <= backlog+puts; i++ {
		it := pool.Get()
		it.TS, it.Size = vt.Timestamp(i), 64
		if _, err := q.Put(prod, it); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if i > backlog && (i-backlog)%len(dst) == 0 {
			if n, err := q.GetBatch(cons, dst[:]); err != nil || n != len(dst) {
				t.Fatalf("GetBatch after %d puts: %d items, %v", i, n, err)
			}
		}
	}
	if got, max := cap(q.items), 2*capacity+64; got > max {
		t.Errorf("cap(items) = %d after %d puts, want ≤ %d", got, puts, max)
	}
	if items := q.Stats().Items; items != backlog {
		t.Errorf("%d items queued after the last get, want %d", items, backlog)
	}
}
