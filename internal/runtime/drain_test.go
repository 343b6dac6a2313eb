package runtime

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vt"
)

// drainPipe builds source → queue → sink on a real clock: the source
// floods `items` puts as fast as the queue accepts them, the sink pays
// `sinkCost` per item so a backlog actually accumulates for the drain
// to flush. Counters are atomics because the lifecycle tests race
// Stop/Drain/Wait against the running bodies.
type drainPipe struct {
	rt        *Runtime
	produced  atomic.Int64
	delivered atomic.Int64
	srcErr    atomic.Value // first non-nil put error the source saw
}

func buildDrainPipe(t *testing.T, items int, sinkCost time.Duration) *drainPipe {
	t.Helper()
	p := &drainPipe{rt: New(Options{})}
	q := p.rt.MustAddQueue("Q", 0)
	src := p.rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		var ts vt.Timestamp
		for !ctx.Stopped() {
			if int(ts) >= items {
				ctx.Idle(time.Millisecond)
				continue
			}
			ts++
			if err := ctx.Put(out, ts, nil, 8); err != nil {
				p.srcErr.CompareAndSwap(nil, err)
				return nil
			}
			p.produced.Add(1)
		}
		return nil
	})
	sink := p.rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		for {
			if _, err := ctx.Get(in); err != nil {
				if errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
			p.delivered.Add(1)
			if sinkCost > 0 {
				ctx.Compute(sinkCost)
			}
		}
	})
	src.MustOutput(q)
	sink.MustInput(q)
	return p
}

// TestDrainFlushesBacklogZeroShed is the core drain contract: a clean
// (deadline-not-hit) drain flushes the whole backlog downstream and
// sheds exactly 0 items — produced == delivered, to the item.
func TestDrainFlushesBacklogZeroShed(t *testing.T) {
	p := buildDrainPipe(t, 400, 100*time.Microsecond)
	if err := p.rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let a backlog build
	rep := p.rt.Drain(10 * time.Second)
	if err := p.rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("drain missed a 10s deadline: %+v", rep)
	}
	if rep.Shed != 0 {
		t.Fatalf("clean drain shed %d items, want 0 (report %+v)", rep.Shed, rep)
	}
	if got, want := p.delivered.Load(), p.produced.Load(); got != want {
		t.Fatalf("conservation broke: produced %d, delivered %d, shed %d", want, got, rep.Shed)
	}
	// The snapshot agrees with the report, buffer by buffer.
	snap := p.rt.Snapshot()
	for _, bs := range snap.Buffers {
		if bs.Name == "Q" && (bs.DrainedItems != rep.Buffers[0].Drained || bs.ShedItems != rep.Buffers[0].Shed) {
			t.Fatalf("snapshot accounting %d/%d disagrees with report %+v", bs.DrainedItems, bs.ShedItems, rep.Buffers[0])
		}
	}
	if snap.Draining {
		t.Fatal("Draining still set after the drain completed")
	}
}

// TestDrainQuiescedSourcePutReturnsErrDraining pins the typed quiesce
// rejection: a source that keeps putting after Drain began observes
// ErrDraining (not a silent drop, not ErrShutdown) — and the rejected
// item never enters the ledger.
func TestDrainQuiescedSourcePutReturnsErrDraining(t *testing.T) {
	rt := New(Options{})
	q := rt.MustAddQueue("Q", 0)
	var putErr atomic.Value
	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		var ts vt.Timestamp
		// Deliberately ignores Stopped: the loop only exits when a put
		// fails, so the quiesce rejection is the only way out.
		for {
			ts++
			if err := ctx.Put(out, ts, nil, 8); err != nil {
				putErr.Store(err)
				return nil
			}
			ctx.Idle(200 * time.Microsecond)
		}
	})
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		for {
			if _, err := ctx.Get(in); err != nil {
				if errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
		}
	})
	src.MustOutput(q)
	sink.MustInput(q)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	rep := rt.Drain(10 * time.Second)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	err, _ := putErr.Load().(error)
	if err == nil {
		t.Fatal("quiesced source never saw a put rejection")
	}
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("quiesced put returned %v, want ErrDraining", err)
	}
	if !rep.Clean || rep.Shed != 0 {
		t.Fatalf("drain not clean/zero-shed: %+v", rep)
	}
}

// TestDrainIdempotent: repeated Drain calls return the first report —
// concurrently and sequentially.
func TestDrainIdempotent(t *testing.T) {
	p := buildDrainPipe(t, 100, 50*time.Microsecond)
	if err := p.rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	reps := make([]DrainReport, 3)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = p.rt.Drain(10 * time.Second)
		}(i)
	}
	wg.Wait()
	if err := p.rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reps); i++ {
		if !reflect.DeepEqual(reps[0], reps[i]) {
			t.Fatalf("drain not idempotent:\nfirst  %+v\nrepeat %+v", reps[0], reps[i])
		}
	}
	if again := p.rt.Drain(time.Millisecond); !reflect.DeepEqual(again, reps[0]) {
		t.Fatalf("post-Wait Drain returned a different report: %+v vs %+v", again, reps[0])
	}
}

// TestDrainAfterStop: Stop first is the abrupt path; a later Drain has
// nothing to flush and must say so — Clean=false, zero duration, with
// the stop-shed backlog visible in the accounting rather than lost.
func TestDrainAfterStop(t *testing.T) {
	p := buildDrainPipe(t, 300, 2*time.Millisecond) // slow sink: backlog at Stop
	if err := p.rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	p.rt.Stop()
	if err := p.rt.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := p.rt.Drain(time.Second)
	if rep.Clean {
		t.Fatalf("Drain after Stop claimed a clean flush: %+v", rep)
	}
	if rep.Duration != 0 {
		t.Fatalf("Drain after Stop took %v, want 0 (nothing to do)", rep.Duration)
	}
	// Conservation via the abrupt path: whatever the sink missed was
	// explicitly shed by Stop's close, not silently dropped.
	if got, want := p.delivered.Load()+rep.Shed, p.produced.Load(); got != want {
		t.Fatalf("stop-shed accounting broke conservation: delivered+shed %d != produced %d", got, want)
	}
	if rep.Shed == 0 {
		t.Fatal("slow sink at Stop left no backlog: the test proves nothing")
	}
}

// TestDrainStopWaitHammer races Drain, Stop, Wait, and in-flight
// PutBatch against each other. Run under -race -count=2 in CI; every
// interleaving must terminate and keep the ledger exact:
// produced == delivered + shed, whichever call wins.
func TestDrainStopWaitHammer(t *testing.T) {
	for round := 0; round < 5; round++ {
		rt := New(Options{})
		q := rt.MustAddQueue("Q", 0)
		var produced, delivered atomic.Int64
		src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
			out := ctx.Outs()[0]
			var ts vt.Timestamp
			specs := make([]PutSpec, 8)
			for !ctx.Stopped() {
				for i := range specs {
					ts++
					specs[i] = PutSpec{TS: ts, Size: 8}
				}
				applied, err := ctx.PutBatch(out, specs)
				produced.Add(int64(applied))
				if err != nil {
					return nil // quiesce or shutdown mid-batch: applied prefix is the truth
				}
				ctx.Idle(100 * time.Microsecond)
			}
			return nil
		})
		sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
			in := ctx.Ins()[0]
			for {
				if _, err := ctx.Get(in); err != nil {
					if errors.Is(err, ErrShutdown) {
						return nil
					}
					return err
				}
				delivered.Add(1)
			}
		})
		src.MustOutput(q)
		sink.MustInput(q)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); time.Sleep(2 * time.Millisecond); rt.Drain(5 * time.Second) }()
		go func() { defer wg.Done(); time.Sleep(time.Duration(round) * time.Millisecond); rt.Stop() }()
		go func() { defer wg.Done(); rt.Wait() }()
		wg.Wait()
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}

		var shed int64
		for _, bs := range rt.Snapshot().Buffers {
			shed += bs.ShedItems
		}
		if produced.Load() != delivered.Load()+shed {
			t.Fatalf("round %d: conservation broke under the race: produced %d != delivered %d + shed %d",
				round, produced.Load(), delivered.Load(), shed)
		}
	}
}

// TestDrainSuppressesRestarts: the supervisor treats drain as a
// terminal phase — a restart granted before the drain began is
// abandoned, and a body exiting with ErrDraining is a clean stop (no
// failure, no restart), exactly like ErrShutdown.
func TestDrainSuppressesRestarts(t *testing.T) {
	rt := New(Options{})
	q := rt.MustAddQueue("Q", 0)
	feeder := rt.MustAddThread("feeder", 0, func(ctx *Ctx) error {
		for !ctx.Stopped() {
			ctx.Idle(time.Millisecond)
		}
		return nil
	})
	th := rt.MustAddThread("worker", 0, func(ctx *Ctx) error {
		ctx.Idle(time.Millisecond)
		return ErrDraining
	}, WithRestartOnFailure(RestartPolicy{MaxRestarts: 5}))
	feeder.MustOutput(q)
	th.MustInput(q)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the worker's ErrDraining exit land
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, th := range rt.Health().Threads {
		if th.Name != "worker" {
			continue
		}
		if th.Restarts != 0 {
			t.Fatalf("ErrDraining exit consumed a restart: %+v", th)
		}
		if th.State != StateStopped {
			t.Fatalf("ErrDraining exit left state %v, want StateStopped", th.State)
		}
	}

	// White-box: with the draining flag up, the restart scheduler
	// refuses outright even with budget to spare.
	rt2 := New(Options{})
	th2 := rt2.MustAddThread("w2", 0, func(ctx *Ctx) error { return nil },
		WithRestartOnFailure(RestartPolicy{MaxRestarts: 5}))
	rt2.draining.Store(true)
	if _, ok := th2.nextRestartDelay(&ThreadFailure{Thread: "w2"}); ok {
		t.Fatal("nextRestartDelay granted a restart during drain")
	}
	_ = th
}
