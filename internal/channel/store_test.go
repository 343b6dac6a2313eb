package channel

import (
	"errors"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/vt"
)

// TestBoundedStorage pushes a million pooled puts through a capacity-1000
// channel whose get-latest consumer reads every 10th put. Storage must
// stay bounded by the live count, not by the number of timestamps that
// ever passed through: the live run within 2·capacity + 64 entries and the
// put history one run. A window consumer keeps a hundred items live
// while the head advances, which drives the live run's compaction.
func TestBoundedStorage(t *testing.T) {
	const (
		puts     = 1_000_000
		capacity = 1000
	)
	for _, window := range []int{1, 100} {
		pool := buffer.NewItemPool()
		c := New(Config{
			Name: "bounded", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp(),
			Capacity: capacity, Pool: pool,
		})
		c.AttachProducer(prodConn)
		c.AttachConsumer(consConn, window)
		for i := 1; i <= puts; i++ {
			it := pool.Get()
			it.TS, it.Size = vt.Timestamp(i), 64
			if _, err := c.Put(prodConn, it); err != nil {
				t.Fatalf("window %d: Put(%d): %v", window, i, err)
			}
			if i%10 == 0 {
				if _, err := c.Get(consConn); err != nil {
					t.Fatalf("window %d: Get after %d puts: %v", window, i, err)
				}
			}
		}
		if got, max := cap(c.live.s), 2*capacity+64; got > max {
			t.Errorf("window %d: cap(live run) = %d after %d puts, want ≤ %d", window, got, puts, max)
		}
		if got := c.history.Runs(); got != 1 {
			t.Errorf("window %d: put history holds %d runs for a dense stream, want 1", window, got)
		}
		if items := c.Stats().Items; items > window {
			t.Errorf("window %d: %d items live after the last get, want ≤ %d", window, items, window)
		}
	}
}

// TestSparseOutOfOrderPuts pins the channel contract on a sparse,
// out-of-order stream: duplicates are exactly "ever put", a late put of a
// never-put timestamp is accepted and collected at once when it is
// already dead, and GetAt tells a freed or skipped-over timestamp (ErrGone)
// from one not yet produced (it waits).
func TestSparseOutOfOrderPuts(t *testing.T) {
	c := newTestChannel(gc.NewDeadTimestamp())
	for _, ts := range []vt.Timestamp{1, 2, 5, 3} {
		put(t, c, ts, 10)
	}
	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 5 || len(res.Skipped) != 3 || res.Skipped[0].TS != 1 || res.Skipped[1].TS != 2 || res.Skipped[2].TS != 3 {
		t.Fatalf("Get = head %v skipped %v, want head 5 over 1, 2, 3 in order", res.Item.TS, res.Skipped)
	}
	if items := c.Stats().Items; items != 0 {
		t.Fatalf("%d items live after the consumer passed them all, want 0", items)
	}

	// A late put of a never-put timestamp below the guarantee is accepted
	// and freed on the spot.
	freesBefore := c.Stats().Frees
	put(t, c, 4, 10)
	if items := c.Stats().Items; items != 0 {
		t.Fatalf("late dead put stayed live: %d items", items)
	}
	if frees := c.Stats().Frees; frees != freesBefore+1 {
		t.Fatalf("frees = %d after a late dead put, want %d", frees, freesBefore+1)
	}
	if got := c.history.Runs(); got != 1 {
		t.Fatalf("history of 1..5 holds %d runs, want 1", got)
	}

	// A re-put of a freed timestamp is a duplicate.
	for _, ts := range []vt.Timestamp{1, 3, 4, 5} {
		if _, err := c.Put(prodConn, &Item{TS: ts}); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("re-put of freed %v: err = %v, want ErrDuplicate", ts, err)
		}
	}

	put(t, c, 7, 10)
	put(t, c, 9, 10)
	if got := c.history.Runs(); got != 3 {
		t.Fatalf("history of 1..5, 7, 9 holds %d runs, want 3", got)
	}

	// A consumer attached after the frees can still name them: GetAt
	// reports a freed timestamp and a gap below the newest put as gone.
	c.AttachConsumer(consConn2, 1)
	for _, ts := range []vt.Timestamp{3, 6, 8} {
		if _, err := c.GetAt(consConn2, ts); !errors.Is(err, ErrGone) {
			t.Fatalf("GetAt(%v): err = %v, want ErrGone", ts, err)
		}
	}
	if res, err := c.GetAt(consConn2, 7); err != nil || res.Item.TS != 7 {
		t.Fatalf("GetAt(7) = %v, %v, want the live item", res.Item.TS, err)
	}

	// Above the newest put, GetAt waits for the producer.
	got := make(chan vt.Timestamp, 1)
	go func() {
		res, err := c.GetAt(consConn2, 12)
		if err != nil {
			t.Error(err)
		}
		got <- res.Item.TS
	}()
	select {
	case ts := <-got:
		t.Fatalf("GetAt above the newest put returned %v without waiting", ts)
	case <-time.After(50 * time.Millisecond):
	}
	put(t, c, 12, 10)
	select {
	case ts := <-got:
		if ts != 12 {
			t.Fatalf("GetAt(12) delivered %v", ts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetAt(12) never woke after the put")
	}
}

// TestChannelSteadyStateAllocs pins the channel's steady state at zero
// allocations: ten pooled puts and one get-latest that skips nine of them
// reuse the pool's items, the live run's backing array and the
// consumer's skipped scratch.
func TestChannelSteadyStateAllocs(t *testing.T) {
	pool := buffer.NewItemPool()
	c := New(Config{
		Name: "allocs", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp(),
		Capacity: 1000, Pool: pool,
	})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	ts := vt.Timestamp(0)
	allocs := testing.AllocsPerRun(500, func() {
		for k := 0; k < 10; k++ {
			ts++
			it := pool.Get()
			it.TS, it.Size = ts, 64
			if _, err := c.Put(prodConn, it); err != nil {
				panic(err)
			}
		}
		res, err := c.Get(consConn)
		if err != nil || len(res.Skipped) != 9 {
			panic("get-latest must skip nine")
		}
	})
	if allocs != 0 {
		t.Fatalf("10 pooled puts + 1 skipping get-latest: %.1f allocs/op, want 0", allocs)
	}
}
