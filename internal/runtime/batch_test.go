package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/vt"
)

// TestCtxBatchOverBackends drives the batch entry points end to end over
// every in-process backend: a producer thread amortizing its puts with
// Ctx.PutBatch, a consumer draining with Ctx.GetBatch. Each backend must
// deliver every item exactly once and in timestamp order (channels under
// the no-op collector drain losslessly oldest-first; queues and rings
// are FIFO by discipline).
func TestCtxBatchOverBackends(t *testing.T) {
	const batches, perBatch = 10, 16
	for _, backend := range []string{"channel", "queue", "ring"} {
		t.Run(backend, func(t *testing.T) {
			rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
			var ref *BufferRef
			switch backend {
			case "channel":
				ref = rt.MustAddChannel("B", 0)
			case "queue":
				ref = rt.MustAddQueue("B", 0)
			case "ring":
				ref = rt.MustAddRing("B", 0, WithCapacity(64))
			}

			prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
				out := ctx.Outs()[0]
				specs := make([]PutSpec, perBatch)
				for b := 0; b < batches; b++ {
					for i := range specs {
						ts := vt.Timestamp(b*perBatch + i + 1)
						specs[i] = PutSpec{TS: ts, Payload: int(ts), Size: 8}
					}
					if applied, err := ctx.PutBatch(out, specs); err != nil || applied != perBatch {
						return fmt.Errorf("putbatch = (%d, %v), want (%d, nil)", applied, err, perBatch)
					}
				}
				<-ctx.Done()
				return nil
			})

			got := make(chan []vt.Timestamp, 1)
			cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
				in := ctx.Ins()[0]
				dst := make([]Msg, 24)
				var seen []vt.Timestamp
				for len(seen) < batches*perBatch {
					n, err := ctx.GetBatch(in, dst)
					if err != nil {
						return err
					}
					for _, m := range dst[:n] {
						if m.Payload.(int) != int(m.TS) {
							return fmt.Errorf("payload %v does not match ts %v", m.Payload, m.TS)
						}
						seen = append(seen, m.TS)
					}
				}
				got <- seen
				<-ctx.Done()
				return nil
			})

			prod.MustOutput(ref)
			cons.MustInput(ref)
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				rt.Stop()
				rt.Wait()
			}()

			select {
			case seen := <-got:
				for i, ts := range seen {
					if ts != vt.Timestamp(i+1) {
						t.Fatalf("seen[%d] = %v, want %v (in-order exactly-once delivery)", i, ts, i+1)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("consumer did not drain the batches")
			}
		})
	}
}

// TestQueueAutoUpgradeToRing pins the materialization-time backend swap:
// a bounded power-of-two queue with one FIFO consumer silently becomes a
// ring on any clock, and every disqualifier (unbounded, non-power-of-two,
// fan-out) leaves the queue as declared.
func TestQueueAutoUpgradeToRing(t *testing.T) {
	pipeline := func(rt *Runtime, ref *BufferRef, consumers int) {
		prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error { <-ctx.Done(); return nil })
		prod.MustOutput(ref)
		for i := 0; i < consumers; i++ {
			cons := rt.MustAddThread(fmt.Sprintf("cons%d", i), 0, func(ctx *Ctx) error { <-ctx.Done(); return nil })
			cons.MustInput(ref)
		}
	}
	start := func(t *testing.T, rt *Runtime) {
		t.Helper()
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
		rt.Wait()
	}

	t.Run("eligible", func(t *testing.T) {
		rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
		q := rt.MustAddQueue("Q", 0, WithCapacity(64))
		pipeline(rt, q, 1)
		start(t, rt)
		if q.Backend() != "ring" {
			t.Fatalf("backend = %q, want ring", q.Backend())
		}
	})
	t.Run("unbounded", func(t *testing.T) {
		rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
		q := rt.MustAddQueue("Q", 0)
		pipeline(rt, q, 1)
		start(t, rt)
		if q.Backend() != "queue" {
			t.Fatalf("backend = %q, want queue (unbounded queues cannot ring)", q.Backend())
		}
	})
	t.Run("non-power-of-two", func(t *testing.T) {
		rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
		q := rt.MustAddQueue("Q", 0, WithCapacity(48))
		pipeline(rt, q, 1)
		start(t, rt)
		if q.Backend() != "queue" {
			t.Fatalf("backend = %q, want queue (capacity 48 must stay exact, not round to 64)", q.Backend())
		}
	})
	t.Run("fan-out", func(t *testing.T) {
		rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
		q := rt.MustAddQueue("Q", 0, WithCapacity(64))
		pipeline(rt, q, 2)
		start(t, rt)
		if q.Backend() != "queue" {
			t.Fatalf("backend = %q, want queue (two consumers need the shared pop)", q.Backend())
		}
	})
	t.Run("virtual-clock", func(t *testing.T) {
		// The ring parks through the clock, so the upgrade holds on the
		// discrete-event clock too. The consumer is slower than the
		// producer: the producer parks on the full ring, and the
		// snapshot's PutBlocked sensor must see it.
		const n = 200
		rt := New(Options{Clock: clock.NewVirtual(), ARU: core.PolicyOff()})
		q := rt.MustAddQueue("Q", 0, WithCapacity(64))
		prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
			for ts := vt.Timestamp(1); ts <= n; ts++ {
				if err := ctx.Put(ctx.Outs()[0], ts, nil, 8); err != nil {
					return err
				}
			}
			return nil
		})
		var got atomic.Int64
		cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
			for ts := vt.Timestamp(1); ts <= n; ts++ {
				m, err := ctx.Get(ctx.Ins()[0])
				if err != nil {
					return err
				}
				if m.TS != ts {
					return fmt.Errorf("got ts %v, want %v", m.TS, ts)
				}
				got.Add(1)
				ctx.Compute(time.Millisecond)
			}
			return nil
		})
		prod.MustOutput(q)
		cons.MustInput(q)
		if err := rt.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if q.Backend() != "ring" {
			t.Fatalf("backend = %q, want ring", q.Backend())
		}
		if got.Load() != n {
			t.Fatalf("consumer got %d/%d items through the ring", got.Load(), n)
		}
		bs := rt.Snapshot().Buffers
		if len(bs) != 1 || bs[0].PutBlockedCount == 0 || bs[0].PutBlocked <= 0 {
			t.Fatalf("snapshot buffers %+v: want Q with PutBlocked > 0, the producer parked on a full ring", bs)
		}
	})
	t.Run("explicit-ring", func(t *testing.T) {
		rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
		r := rt.MustAddRing("R", 0, WithCapacity(32))
		pipeline(rt, r, 1)
		start(t, rt)
		if r.Backend() != "ring" {
			t.Fatalf("backend = %q, want ring", r.Backend())
		}
	})
}

// TestMultiTenantPipelines packs thousands of independent two-thread
// pipelines into one runtime — the million-client shape: many small
// tenant graphs sharing one scheduler, one item pool, and one
// materialization pass. Every pipeline's queue is ring-eligible, so this
// is also the auto-upgrade at scale, and the per-tenant item counts must
// come out exact despite 2·N goroutines running concurrently.
func TestMultiTenantPipelines(t *testing.T) {
	pipelines := 10000
	if testing.Short() {
		pipelines = 500
	}
	const perPipeline = 4

	rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
	var delivered atomic.Int64
	refs := make([]*BufferRef, pipelines)
	for i := 0; i < pipelines; i++ {
		q := rt.MustAddQueue(fmt.Sprintf("q%d", i), 0, WithCapacity(8))
		refs[i] = q
		prod := rt.MustAddThread(fmt.Sprintf("p%d", i), 0, func(ctx *Ctx) error {
			out := ctx.Outs()[0]
			specs := make([]PutSpec, perPipeline)
			for k := range specs {
				specs[k] = PutSpec{TS: vt.Timestamp(k + 1), Size: 16}
			}
			if applied, err := ctx.PutBatch(out, specs); err != nil || applied != perPipeline {
				return fmt.Errorf("putbatch = (%d, %v)", applied, err)
			}
			return nil
		})
		cons := rt.MustAddThread(fmt.Sprintf("c%d", i), 0, func(ctx *Ctx) error {
			in := ctx.Ins()[0]
			dst := make([]Msg, perPipeline)
			var next vt.Timestamp = 1
			for got := 0; got < perPipeline; {
				n, err := ctx.GetBatch(in, dst)
				if err != nil {
					return err
				}
				for _, m := range dst[:n] {
					if m.TS != next {
						return fmt.Errorf("tenant saw ts %v, want %v", m.TS, next)
					}
					next++
				}
				got += n
				delivered.Add(int64(n))
			}
			return nil
		})
		prod.MustOutput(q)
		cons.MustInput(q)
	}

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		rt.Stop()
		rt.Wait()
	}()

	want := int64(pipelines * perPipeline)
	deadline := time.Now().Add(60 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d items before the deadline", delivered.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered = %d, want exactly %d", got, want)
	}
	for _, ref := range refs[:10] {
		if ref.Backend() != "ring" {
			t.Fatalf("tenant queue %s backend = %q, want ring (auto-upgrade at scale)", ref.Name(), ref.Backend())
		}
	}
}
