package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vt"
)

// The hot-path allocation pins. PR 1 drove the buffer hot path to its
// floor — a skip-free consume is 0 allocs/op and a put+consume round
// trip cost exactly the one Item the producer materialized. The item
// pool retired that last allocation: in steady state the Item freed by
// the consumer's get is the Item the producer's next put reuses, so a
// put+get round trip is now 0 allocs/op. A pure put backlog (nothing
// freed, so nothing recycled) still pays the 1 Item alloc per put —
// that residual pin is kept below. testing.AllocsPerRun divides total
// mallocs by runs (integer division), so amortized slice/map growth
// inside the backends does not disturb the pins.

const allocRuns = 500

// allocRuntime builds a tracing-free runtime (nil Recorder: the traced
// round trip is pinned by TestCtxPutGetSyncAllocsTraced) with ARU off and
// a real clock.
func allocRuntime() *Runtime {
	return New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
}

// TestCtxPutChannelAllocs pins the producer half in isolation: a pure
// put backlog recycles nothing, so each Ctx.Put pays exactly 1 alloc —
// the Item the pool must mint when its free list is empty.
func TestCtxPutChannelAllocs(t *testing.T) {
	rt := allocRuntime()
	ch := rt.MustAddChannel("C", 0)
	got := make(chan float64, 1)

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		ts := vt.Timestamp(0)
		got <- testing.AllocsPerRun(allocRuns, func() {
			ts++
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				panic(err)
			}
		})
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		<-ctx.Done() // attached but idle: nothing else allocates
		return nil
	})
	prod.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	allocs := <-got
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("Ctx.Put on channel: %.0f allocs/op, want exactly 1 (the Item)", allocs)
	}
}

// TestCtxPutGetChannelAllocs pins a full produce/consume round trip over
// a channel through the unified dispatch at the pooled floor: the
// consumer measures (request, producer's Ctx.Put, Ctx.Get) and the
// round is 0 allocs/op — the Item freed by the previous round's get is
// the Item this round's put reuses.
func TestCtxPutGetChannelAllocs(t *testing.T) {
	rt := allocRuntime()
	ch := rt.MustAddChannel("C", 0)
	req := make(chan struct{})
	ack := make(chan struct{})
	got := make(chan float64, 1)

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		ts := vt.Timestamp(0)
		for {
			select {
			case <-ctx.Done():
				return nil
			case _, ok := <-req:
				if !ok {
					return nil
				}
			}
			ts++
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				return err
			}
			ack <- struct{}{}
		}
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		got <- testing.AllocsPerRun(allocRuns, func() {
			req <- struct{}{}
			<-ack
			if _, err := ctx.Get(in); err != nil {
				panic(err)
			}
		})
		close(req)
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	allocs := <-got
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("channel put+get round trip: %.0f allocs/op, want 0 (pooled Item)", allocs)
	}
}

// TestCtxPutGetSyncAllocsTraced pins the traced round trip: with a
// Recorder attached, a channel put+get where both sides end the
// iteration with Sync — so the producer's EvIter and EvAlloc carry
// provenance — is 0 allocs/op. The recorder copies every provenance list
// into its arena, and its event and arena chunks amortize to nothing
// under AllocsPerRun's integer division.
func TestCtxPutGetSyncAllocsTraced(t *testing.T) {
	rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff(), Recorder: trace.NewRecorder()})
	ch := rt.MustAddChannel("C", 0)
	req := make(chan struct{})
	ack := make(chan struct{})
	got := make(chan float64, 1)

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		ts := vt.Timestamp(0)
		for {
			select {
			case <-ctx.Done():
				return nil
			case _, ok := <-req:
				if !ok {
					return nil
				}
			}
			ts++
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				return err
			}
			ctx.Sync()
			ack <- struct{}{}
		}
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		got <- testing.AllocsPerRun(allocRuns, func() {
			req <- struct{}{}
			<-ack
			if _, err := ctx.Get(in); err != nil {
				panic(err)
			}
			ctx.Sync()
		})
		close(req)
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	allocs := <-got
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("traced put+Sync+get+Sync round trip: %.0f allocs/op, want 0", allocs)
	}
}

// TestCtxPutGetQueueAllocs pins both halves on the FIFO backend: Ctx.Put
// is exactly the 1 Item alloc, and draining the backlog through the
// unified Ctx.Get — which now also advances the queue's frees counter —
// is 0 allocs/op.
func TestCtxPutGetQueueAllocs(t *testing.T) {
	rt := allocRuntime()
	q := rt.MustAddQueue("Q", 0)
	putAllocs := make(chan float64, 1)
	getAllocs := make(chan float64, 1)
	start := make(chan struct{})

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		ts := vt.Timestamp(0)
		putAllocs <- testing.AllocsPerRun(allocRuns, func() {
			ts++
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				panic(err)
			}
		})
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		<-start // wait until the producer has gone quiet
		getAllocs <- testing.AllocsPerRun(allocRuns, func() {
			if _, err := ctx.Get(in); err != nil {
				panic(err)
			}
		})
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(q)
	cons.MustInput(q)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	puts := <-putAllocs // producer finished all its puts
	close(start)
	gets := <-getAllocs
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if puts != 1 {
		t.Errorf("Ctx.Put on queue: %.0f allocs/op, want exactly 1 (the Item)", puts)
	}
	if gets != 0 {
		t.Errorf("Ctx.Get on queue: %.0f allocs/op, want 0", gets)
	}
}

// TestProvenanceUntracedStaysEmpty is the Ctx.produced leak regression
// test: without a Recorder, the per-iteration provenance lists feed
// nothing, so a producer that puts 1M items and a consumer that gets
// and reuses them, neither ever calling Sync, must leave both lists
// unallocated.
func TestProvenanceUntracedStaysEmpty(t *testing.T) {
	const items = 1_000_000
	rt := allocRuntime()
	ring := rt.MustAddRing("R", 0, WithCapacity(1024))
	produced, consumed := make(chan int, 1), make(chan int, 1)

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		for ts := vt.Timestamp(1); ts <= items; ts++ {
			if err := ctx.Put(out, ts, nil, 8); err != nil {
				produced <- -1
				return err
			}
		}
		produced <- cap(ctx.produced)
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		for i := 0; i < items; i++ {
			msg, err := ctx.Get(in)
			if err != nil {
				consumed <- -1
				return err
			}
			ctx.Reuse(msg)
		}
		consumed <- cap(ctx.consumed)
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(ring)
	cons.MustInput(ring)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	p, c := <-produced, <-consumed
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if p != 0 || c != 0 {
		t.Fatalf("untraced provenance grew: cap(produced) = %d, cap(consumed) = %d, want 0 and 0", p, c)
	}
}

// countingClock is a real clock that counts its Now calls.
type countingClock struct {
	*clock.Real
	nows atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.nows.Add(1)
	return c.Real.Now()
}

// TestCtxPutGetClockReads pins the untraced hot path's clock reads: with
// no Recorder attached the clock feeds nothing in the runtime layer, and
// a get that finds its item waiting measures no blocked time, so neither
// a Ctx.Put+Ctx.Get round nor the same round made directly against the
// port's buffer reads the clock at all.
func TestCtxPutGetClockReads(t *testing.T) {
	const rounds = 200
	for _, backend := range []string{"queue", "channel"} {
		t.Run(backend, func(t *testing.T) {
			clk := &countingClock{Real: clock.NewReal()}
			rt := New(Options{Clock: clk, ARU: core.PolicyOff()})
			var buf *BufferRef
			if backend == "queue" {
				buf = rt.MustAddQueue("B", 0)
			} else {
				buf = rt.MustAddChannel("B", 0)
			}
			req := make(chan bool) // true: bypass the Ctx
			ack := make(chan struct{})
			got := make(chan [2]int64, 1)

			prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
				out := ctx.Outs()[0]
				ts := vt.Timestamp(0)
				for raw := range req {
					ts++
					var err error
					if raw {
						it := rt.pool.Get()
						it.TS, it.Size = ts, 64
						_, err = out.buf.Put(out.conn, it)
					} else {
						err = ctx.Put(out, ts, nil, 64)
					}
					if err != nil {
						return err
					}
					ack <- struct{}{}
				}
				return nil
			})
			cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
				in := ctx.Ins()[0]
				var reads [3]int64
				// Round 0 is a warm-up: the producer's startup reads the
				// clock too.
				for i, raw := range []bool{false, false, true} {
					before := clk.nows.Load()
					for r := 0; r < rounds; r++ {
						req <- raw
						<-ack
						var err error
						if raw {
							_, err = in.buf.Get(in.conn)
						} else {
							_, err = ctx.Get(in)
						}
						if err != nil {
							return err
						}
					}
					reads[i] = clk.nows.Load() - before
				}
				close(req)
				got <- [2]int64{reads[1], reads[2]}
				<-ctx.Done()
				return nil
			})
			prod.MustOutput(buf)
			cons.MustInput(buf)

			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			reads := <-got
			rt.Stop()
			if err := rt.Wait(); err != nil {
				t.Fatal(err)
			}
			if reads[0] != 0 || reads[1] != 0 {
				t.Fatalf("%d non-waiting put+get rounds read the clock %d times through the Ctx and %d times on the bare buffer, want 0 and 0",
					rounds, reads[0], reads[1])
			}
		})
	}
}
