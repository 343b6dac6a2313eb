package channel

import (
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vt"
)

// BenchmarkGetLatestNoSkip isolates the consume side of the hot path: the
// timer (and the allocation counter) only runs around GetLatest, with the
// matching Put excluded via StopTimer. Run with a fixed -benchtime=N x
// (StopTimer/StartTimer are expensive). This is the path the tentpole
// drives to 0 allocs/op.
func BenchmarkGetLatestNoSkip(b *testing.B) {
	c := New(Config{Name: "b", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := c.Put(prodConn, &Item{TS: vt.Timestamp(i + 1), Size: 1024}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Get(consConn); err != nil {
			b.Fatal(err)
		}
	}
}

// benchContended drives one producer (the benchmark loop) against m
// consumer goroutines hammering GetLatest on the same channel — the
// multi-consumer fan-out every Stampede channel serves. ns/op is the
// producer-observed put cost under contention, which includes the wakeup
// protocol (Broadcast before the tentpole, targeted signaling after).
func benchContended(b *testing.B, m int) {
	c := New(Config{Name: "b", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	conns := make([]graph.ConnID, m)
	for i := range conns {
		conns[i] = graph.ConnID(100 + i)
		c.AttachConsumer(conns[i], 1)
	}
	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func(conn graph.ConnID) {
			defer wg.Done()
			for {
				if _, err := c.Get(conn); err != nil {
					return
				}
			}
		}(conn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(prodConn, &Item{TS: vt.Timestamp(i + 1), Size: 1024}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	wg.Wait()
}

// BenchmarkContendedFanout4 is the contended multi-consumer benchmark
// (4 GetLatest consumers).
func BenchmarkContendedFanout4(b *testing.B) { benchContended(b, 4) }

// BenchmarkContendedFanout16 stresses the wakeup protocol harder.
func BenchmarkContendedFanout16(b *testing.B) { benchContended(b, 16) }

// BenchmarkPutGetLatest measures one put + one consume on a DGC channel —
// the runtime's hot path. The paper argues ARU's overhead is "minuscule";
// this quantifies the whole buffer operation it piggybacks on.
func BenchmarkPutGetLatest(b *testing.B) {
	c := New(Config{Name: "b", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(prodConn, &Item{TS: vt.Timestamp(i + 1), Size: 1024}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get(consConn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutSkip10 measures the skip-heavy pattern: ten puts per
// consume, nine items skipped and collected.
func BenchmarkPutSkip10(b *testing.B) {
	c := New(Config{Name: "b", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	ts := vt.Timestamp(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 10; j++ {
			ts++
			if _, err := c.Put(prodConn, &Item{TS: ts, Size: 1024}); err != nil {
				b.Fatal(err)
			}
		}
		res, err := c.Get(consConn)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Skipped) != 9 {
			b.Fatalf("skipped %d", len(res.Skipped))
		}
	}
}

// BenchmarkWindowGet measures sliding-window delivery (width 8).
func BenchmarkWindowGet(b *testing.B) {
	c := New(Config{Name: "b", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 8)
	ts := vt.Timestamp(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts++
		if _, err := c.Put(prodConn, &Item{TS: ts, Size: 1024}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get(consConn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutGetLatestMetricsOn is BenchmarkPutGetLatest with a live
// metrics registry attached: the delta between the two is the entire
// per-operation cost of the instrumentation (a handful of atomic adds;
// still 1 alloc/op — the Item). EXPERIMENTS.md tracks the pair.
func BenchmarkPutGetLatestMetricsOn(b *testing.B) {
	c := New(Config{
		Name:      "b",
		Clock:     clock.NewReal(),
		Collector: gc.NewDeadTimestamp(),
		Metrics:   metrics.NewRegistry(),
	})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(prodConn, &Item{TS: vt.Timestamp(i + 1), Size: 1024}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get(consConn); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPutGetBatch measures the pooled batch path: 16 items per
// PutBatch/GetBatch round, so ns/op is the amortized per-item cost. The
// pool keeps the steady state at 0 allocs/op; with metrics attached the
// instrumentation is charged once per batch, not once per item, which is
// what reclaims the PR 5 metrics-on regression for high-rate producers.
func benchPutGetBatch(b *testing.B, reg *metrics.Registry) {
	pool := buffer.NewItemPool()
	c := New(Config{
		Name:      "b",
		Clock:     clock.NewReal(),
		Collector: gc.NewDeadTimestamp(),
		Metrics:   reg,
		Pool:      pool,
	})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	const batch = 16
	items := make([]*Item, batch)
	dst := make([]GetResult, batch)
	ts := vt.Timestamp(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			it := pool.Get()
			ts++
			it.TS, it.Size = ts, 1024
			items[j] = it
		}
		if applied, _, err := c.PutBatch(prodConn, items); err != nil || applied != batch {
			b.Fatalf("putbatch = (%d, %v)", applied, err)
		}
		for got := 0; got < batch; {
			n, err := c.GetBatch(consConn, dst[:batch-got])
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
}

func BenchmarkPutGetBatch16(b *testing.B)          { benchPutGetBatch(b, nil) }
func BenchmarkPutGetBatch16MetricsOn(b *testing.B) { benchPutGetBatch(b, metrics.NewRegistry()) }

// BenchmarkPutGetLatestPooled is BenchmarkPutGetLatest with an ItemPool:
// the put=1 allocation (the Item) recycles through the pool, so the
// steady-state round trip is 0 allocs/op.
func BenchmarkPutGetLatestPooled(b *testing.B) {
	pool := buffer.NewItemPool()
	c := New(Config{
		Name:      "b",
		Clock:     clock.NewReal(),
		Collector: gc.NewDeadTimestamp(),
		Pool:      pool,
	})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := pool.Get()
		it.TS, it.Size = vt.Timestamp(i+1), 1024
		if _, err := c.Put(prodConn, it); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get(consConn); err != nil {
			b.Fatal(err)
		}
	}
}
