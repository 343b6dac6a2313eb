package runtime

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vt"
)

// TestHungConsumerDoesNotDeadlockPipeline injects a consumer that stops
// consuming mid-run. The producer must keep running (unbounded channel),
// the runtime must stop cleanly, and with DGC nothing is freed past the
// hang point (the hung consumer's guarantee pins items).
func TestHungConsumerDoesNotDeadlockPipeline(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), ARU: core.PolicyMin(), Recorder: rec})
	c1 := rt.MustAddChannel("C1", 0)

	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(2 * time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 100); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	hang := rt.MustAddThread("hangs-after-5", 0, func(ctx *Ctx) error {
		for i := 0; i < 5; i++ {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			ctx.Compute(4 * time.Millisecond)
			ctx.Sync()
		}
		ctx.Park() // hangs: never consumes again
		return nil
	})
	src.MustOutput(c1)
	hang.MustInput(c1)

	if err := rt.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(rec, trace.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The producer kept going long after the consumer hung.
	if a.ItemsTotal < 50 {
		t.Fatalf("producer stalled: only %d items", a.ItemsTotal)
	}
	// Everything after the hang is wasted — the exact pathology ARU
	// cannot fix alone when feedback stops flowing (stale summary).
	if a.ItemsWasted < a.ItemsTotal/2 {
		t.Errorf("expected mostly wasted items, got %d/%d", a.ItemsWasted, a.ItemsTotal)
	}
}

// TestBurstyProducer alternates fast bursts with long pauses; consumers
// must survive and the trace must stay consistent.
func TestBurstyProducer(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), Recorder: rec})
	c1 := rt.MustAddChannel("C1", 0)

	src := rt.MustAddThread("bursty", 0, func(ctx *Ctx) error {
		ts := vt.Timestamp(0)
		for !ctx.Stopped() {
			for i := 0; i < 10; i++ { // burst
				ts++
				ctx.Compute(500 * time.Microsecond)
				if err := ctx.Put(ctx.Outs()[0], ts, nil, 10); err != nil {
					return err
				}
				ctx.Sync()
			}
			ctx.Idle(50 * time.Millisecond) // silence
			ctx.Sync()
		}
		return nil
	})
	var consumed int
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			consumed++
			ctx.Compute(3 * time.Millisecond)
			ctx.Emit()
			ctx.Sync()
		}
	})
	src.MustOutput(c1)
	sink.MustInput(c1)

	if err := rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if consumed < 10 {
		t.Fatalf("sink consumed only %d items", consumed)
	}
	if _, err := trace.Analyze(rec, trace.AnalyzeOptions{}); err != nil {
		t.Fatalf("trace inconsistent after bursts: %v", err)
	}
}

// TestBoundedChannelBackpressure verifies that a capacity-bounded channel
// throttles the producer by blocking (backpressure), and that blocked
// put time is excluded from the producer's current-STP.
func TestBoundedChannelBackpressure(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), ARU: core.PolicyOff(), Recorder: rec})
	c1 := rt.MustAddChannel("C1", 0, WithCapacity(2))

	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 10); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			ctx.Compute(20 * time.Millisecond)
			ctx.Sync()
		}
	})
	src.MustOutput(c1)
	sink.MustInput(c1)

	if err := rt.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The channel never exceeded its bound.
	var srcIters, fastIters int
	var blockedTotal time.Duration
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvIter && ev.Thread == src.ID() {
			srcIters++
			blockedTotal += ev.Blocked
			if ev.Compute < 5*time.Millisecond {
				fastIters++
			}
		}
	}
	if srcIters == 0 {
		t.Fatal("no source iterations")
	}
	// A 1ms producer against a 20ms consumer with capacity 2: the
	// producer must have spent most of its time blocked.
	if blockedTotal < 200*time.Millisecond {
		t.Errorf("producer blocked only %v; backpressure not engaging", blockedTotal)
	}
	// Compute (current-STP basis) stays near 1ms despite the blocking.
	if fastIters < srcIters*3/4 {
		t.Errorf("blocked put time leaked into compute: %d/%d fast iterations", fastIters, srcIters)
	}
	// DGC with a single consumer: occupancy bounded by capacity.
	ch := rt.Channel(c1)
	if n := ch.Stats().Items; n > 2 {
		t.Errorf("occupancy %d exceeds capacity 2", n)
	}
}

// TestARUSurvivesConsumerStall: with ARU-min and a consumer that stalls
// for a while and then resumes, the source must slow down on stale
// feedback and speed back up after recovery — no deadlock, no runaway.
func TestARUSurvivesConsumerStall(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), ARU: core.PolicyMin(), Recorder: rec})
	c1 := rt.MustAddChannel("C1", 0)

	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(2 * time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 100); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	sink := rt.MustAddThread("stalling-sink", 0, func(ctx *Ctx) error {
		n := 0
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			n++
			if n == 10 {
				ctx.Idle(200 * time.Millisecond) // stall
			}
			ctx.Compute(10 * time.Millisecond)
			ctx.Emit()
			ctx.Sync()
		}
	})
	src.MustOutput(c1)
	sink.MustInput(c1)

	if err := rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(rec, trace.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline recovered: outputs continued after the stall window.
	var late int
	for _, ts := range a.OutputTimes {
		if ts > 500*time.Millisecond {
			late++
		}
	}
	if late < 10 {
		t.Fatalf("pipeline did not recover after the stall: %d late outputs", late)
	}
}

// TestTryGetLatestAndReuseProvenance drives the cached-input pattern and
// checks that reused items stay classified successful.
func TestTryGetLatestAndReuseProvenance(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), Recorder: rec})
	frames := rt.MustAddChannel("frames", 0)
	models := rt.MustAddChannel("models", 0)

	frameSrc := rt.MustAddThread("frames-src", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(5 * time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 100); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	modelSrc := rt.MustAddThread("models-src", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(50 * time.Millisecond) // rare model updates
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 100); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	detect := rt.MustAddThread("detect", 0, func(ctx *Ctx) error {
		model, err := ctx.GetLatest(ctx.Ins()[1])
		if err != nil {
			return err
		}
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			if m, ok, err := ctx.TryGetLatest(ctx.Ins()[1]); err != nil {
				return err
			} else if ok {
				model = m
			} else {
				ctx.Reuse(model)
			}
			ctx.Compute(10 * time.Millisecond)
			ctx.Emit()
			ctx.Sync()
		}
	})
	frameSrc.MustOutput(frames)
	modelSrc.MustOutput(models)
	detect.MustInput(frames)
	detect.MustInput(models)

	if err := rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(rec, trace.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every model that was ever consumed is reused across iterations and
	// must be successful; models are produced every 50ms and consumed
	// every ~10ms cycle, so virtually all are used.
	var modelWasted int
	for _, it := range a.Items {
		if it.Node == models.ID() && !it.Successful && it.Gets > 0 {
			modelWasted++
		}
	}
	if modelWasted != 0 {
		t.Errorf("%d consumed models classified wasted despite Reuse", modelWasted)
	}
	if a.Outputs < 50 {
		t.Fatalf("outputs = %d", a.Outputs)
	}
}
