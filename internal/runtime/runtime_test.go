package runtime

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
)

// fastClock returns the discrete-event virtual clock: paper-scale
// millisecond periods cost essentially no wall time and are exact.
func fastClock() clock.Clock { return clock.NewVirtual() }

// buildChain constructs src -> C1 -> mid -> C2 -> sink with the given
// compute periods and returns the runtime plus the recorder.
func buildChain(t *testing.T, policy core.Policy, srcPeriod, midPeriod, sinkPeriod time.Duration) (*Runtime, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), ARU: policy, Recorder: rec})

	c1 := rt.MustAddChannel("C1", 0)
	c2 := rt.MustAddChannel("C2", 0)

	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		var ts vt.Timestamp
		out := outPortOf(t, rt, "src", "C1")
		for !ctx.Stopped() {
			ts++
			ctx.Compute(srcPeriod)
			if err := ctx.Put(out, ts, ts, 1000); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	mid := rt.MustAddThread("mid", 0, func(ctx *Ctx) error {
		in := inPortOf(t, rt, "mid", "C1")
		out := outPortOf(t, rt, "mid", "C2")
		for {
			msg, err := ctx.GetLatest(in)
			if err != nil {
				return err
			}
			ctx.Compute(midPeriod)
			if err := ctx.Put(out, msg.TS, msg.Payload, 500); err != nil {
				return err
			}
			ctx.Sync()
		}
	})
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		in := inPortOf(t, rt, "sink", "C2")
		for {
			_, err := ctx.GetLatest(in)
			if err != nil {
				return err
			}
			ctx.Compute(sinkPeriod)
			ctx.Emit()
			ctx.Sync()
		}
	})

	src.MustOutput(c1)
	mid.MustInput(c1)
	mid.MustOutput(c2)
	sink.MustInput(c2)
	_ = sink
	return rt, rec
}

// outPortOf / inPortOf find a thread's port by buffer name; declared ports
// are established before Start, so bodies can resolve them lazily.
func outPortOf(t *testing.T, rt *Runtime, threadName, bufName string) *OutPort {
	t.Helper()
	for _, th := range rt.threads {
		if th.name != threadName {
			continue
		}
		for _, p := range th.outs {
			if p.ref.name == bufName {
				return p
			}
		}
	}
	t.Fatalf("no out port %s -> %s", threadName, bufName)
	return nil
}

func inPortOf(t *testing.T, rt *Runtime, threadName, bufName string) *InPort {
	t.Helper()
	for _, th := range rt.threads {
		if th.name != threadName {
			continue
		}
		for _, p := range th.ins {
			if p.ref.name == bufName {
				return p
			}
		}
	}
	t.Fatalf("no in port %s <- %s", threadName, bufName)
	return nil
}

func TestPipelineEndToEnd(t *testing.T) {
	rt, rec := buildChain(t, core.PolicyOff(), 10*time.Millisecond, 30*time.Millisecond, 5*time.Millisecond)
	if err := rt.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(rec, trace.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Outputs < 10 {
		t.Fatalf("outputs = %d, want a steady stream", a.Outputs)
	}
	if a.ItemsTotal == 0 || a.Gets == 0 {
		t.Fatal("no items traced")
	}
	// The fast source (10ms) feeding a slow mid (30ms) must generate
	// skipped/wasted items without ARU.
	if a.ItemsWasted == 0 {
		t.Fatal("expected wasted items without ARU")
	}
	if a.ThroughputFPS <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestARUThrottlesSource(t *testing.T) {
	run := func(policy core.Policy) (*trace.Analysis, int64) {
		rt, rec := buildChain(t, policy, 10*time.Millisecond, 30*time.Millisecond, 5*time.Millisecond)
		if err := rt.RunFor(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		a, err := trace.Analyze(rec, trace.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var srcIters int64
		for _, th := range rt.threads {
			if th.name == "src" {
				// iterations == puts onto C1
				ch := rt.buffers[th.outs[0].ref.id]
				puts := ch.Stats().Puts
				srcIters = puts
			}
		}
		return a, srcIters
	}

	aOff, putsOff := run(core.PolicyOff())
	aMin, putsMin := run(core.PolicyMin())

	if putsMin >= putsOff {
		t.Fatalf("ARU-min must slow the source: %d puts vs %d without", putsMin, putsOff)
	}
	if aMin.WastedMemPct >= aOff.WastedMemPct {
		t.Fatalf("ARU-min must reduce wasted memory: %.1f%% vs %.1f%%",
			aMin.WastedMemPct, aOff.WastedMemPct)
	}
	if aMin.All.MeanBytes >= aOff.All.MeanBytes {
		t.Fatalf("ARU-min must reduce mean footprint: %.0f vs %.0f",
			aMin.All.MeanBytes, aOff.All.MeanBytes)
	}
	// Throughput must not collapse: the sink is driven by the mid stage
	// either way.
	if aMin.Outputs < aOff.Outputs/3 {
		t.Fatalf("ARU-min throughput collapsed: %d vs %d outputs", aMin.Outputs, aOff.Outputs)
	}
}

func TestStopUnblocksAndShutsDownCleanly(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), Recorder: rec})
	c1 := rt.MustAddChannel("C1", 0)
	// A consumer that blocks forever (no producer puts).
	rt.MustAddThread("producer", 0, func(ctx *Ctx) error {
		out := ctx.thread.outs[0]
		// Produce one item then idle until stop.
		if err := ctx.Put(out, 1, nil, 10); err != nil {
			return err
		}
		ctx.Sync()
		ctx.Park()
		return nil
	}).MustOutput(c1)
	rt.MustAddThread("consumer", 0, func(ctx *Ctx) error {
		in := ctx.thread.ins[0]
		for {
			if _, err := ctx.GetLatest(in); err != nil {
				return err
			}
			ctx.Sync()
		}
	}).MustInput(c1)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Wait() }()
	time.Sleep(20 * time.Millisecond)
	rt.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runtime did not shut down")
	}
	if !rt.Stopped() {
		t.Error("Stopped must report true")
	}
	rt.Stop() // idempotent
}

func TestQueueFlow(t *testing.T) {
	rec := trace.NewRecorder()
	rt := New(Options{Clock: fastClock(), Recorder: rec})
	q := rt.MustAddQueue("Q", 0)
	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.thread.outs[0]
		for ts := vt.Timestamp(1); ts <= 20; ts++ {
			if err := ctx.Put(out, ts, int(ts), 8); err != nil {
				return err
			}
			ctx.Sync()
		}
		ctx.Park()
		return nil
	})
	var got []vt.Timestamp
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.thread.ins[0]
		for {
			msg, err := ctx.GetQueue(in)
			if err != nil {
				return err
			}
			got = append(got, msg.TS)
			if len(got) == 20 {
				ctx.Emit()
			}
			ctx.Sync()
		}
	})
	prod.MustOutput(q)
	cons.MustInput(q)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := rt.Buffer(q).Stats().Puts; n >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producer never finished")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let consumer drain
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("consumed %d items, want 20 (FIFO, no skipping)", len(got))
	}
	for i, ts := range got {
		if ts != vt.Timestamp(i+1) {
			t.Fatalf("out of order at %d: %v", i, ts)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	rt := New(Options{Clock: fastClock()})
	if _, err := rt.AddChannel("C", 5); err == nil {
		t.Error("out-of-range host must fail")
	}
	if _, err := rt.AddThread("t", 0, nil); err == nil {
		t.Error("nil body must fail")
	}
	c := rt.MustAddChannel("C", 0)
	th := rt.MustAddThread("t", 0, func(ctx *Ctx) error { return nil })
	th.MustOutput(c)
	// Channel with no consumer fails validation at Start.
	if err := rt.Start(); err == nil || !strings.Contains(err.Error(), "consumer") {
		t.Fatalf("Start err = %v, want consumer validation failure", err)
	}
}

func TestStartTwiceFails(t *testing.T) {
	rt := New(Options{Clock: fastClock()})
	c := rt.MustAddChannel("C", 0)
	p := rt.MustAddThread("p", 0, func(ctx *Ctx) error { ctx.Park(); return nil })
	s := rt.MustAddThread("s", 0, func(ctx *Ctx) error { ctx.Park(); return nil })
	p.MustOutput(c)
	s.MustInput(c)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil {
		t.Error("second Start must fail")
	}
	if _, err := rt.AddChannel("D", 0); err == nil {
		t.Error("AddChannel after Start must fail")
	}
	if _, err := p.Output(c); err == nil {
		t.Error("Output after Start must fail")
	}
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBodyErrorSurfacesInWait(t *testing.T) {
	boom := errors.New("boom")
	rt := New(Options{Clock: fastClock()})
	c := rt.MustAddChannel("C", 0)
	p := rt.MustAddThread("p", 0, func(ctx *Ctx) error { return boom })
	s := rt.MustAddThread("s", 0, func(ctx *Ctx) error {
		in := ctx.thread.ins[0]
		_, err := ctx.GetLatest(in)
		return err
	})
	p.MustOutput(c)
	s.MustInput(c)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	rt.Stop()
	err := rt.Wait()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want boom", err)
	}
}

func TestClusterPlacementAndTransfers(t *testing.T) {
	clk := fastClock()
	cluster := transport.NewCluster(clk, transport.ClusterSpec{
		Hosts: 2,
		Link:  transport.LinkSpec{Latency: time.Millisecond, BytesPerSec: 100e6},
	})
	rec := trace.NewRecorder()
	rt := New(Options{Clock: clk, Cluster: cluster, Recorder: rec})
	c := rt.MustAddChannel("C", 0)
	p := rt.MustAddThread("p", 0, func(ctx *Ctx) error {
		out := ctx.thread.outs[0]
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			if err := ctx.Put(out, ts, nil, 100_000); err != nil {
				return err
			}
			ctx.Compute(2 * time.Millisecond)
			ctx.Sync()
		}
		return nil
	})
	s := rt.MustAddThread("s", 1, func(ctx *Ctx) error { // remote host
		in := ctx.thread.ins[0]
		for {
			if _, err := ctx.GetLatest(in); err != nil {
				return err
			}
			ctx.Sync()
		}
	})
	p.MustOutput(c)
	s.MustInput(c)
	if err := rt.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Consumer on host 1 pulled items from host 0: the link must show
	// traffic.
	if busy := cluster.Network().LinkBusy(0, 1); busy == 0 {
		t.Fatal("cross-host link saw no traffic")
	}
}

func TestTotalOccupancyAndAccessors(t *testing.T) {
	rt, _ := buildChain(t, core.PolicyOff(), 5*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	items, bytes := rt.TotalOccupancy()
	if items < 0 || bytes < 0 {
		t.Fatal("occupancy must be non-negative")
	}
	if rt.Graph().NumNodes() != 5 {
		t.Errorf("graph nodes = %d", rt.Graph().NumNodes())
	}
	if rt.Controller() == nil {
		t.Error("controller must exist after Start")
	}
	if rt.Clock() == nil || rt.Recorder() == nil {
		t.Error("accessors broken")
	}
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	// After stop, everything is freed.
	items, bytes = rt.TotalOccupancy()
	if items != 0 || bytes != 0 {
		t.Fatalf("occupancy after stop = %d/%d", items, bytes)
	}
}

func TestGCCollectorPluggability(t *testing.T) {
	for _, coll := range []gc.Collector{gc.NewNone(), gc.NewTransparent(), gc.NewDeadTimestamp()} {
		rec := trace.NewRecorder()
		rt := New(Options{Clock: fastClock(), Collector: coll, Recorder: rec})
		c1 := rt.MustAddChannel("C1", 0)
		p := rt.MustAddThread("p", 0, func(ctx *Ctx) error {
			out := ctx.thread.outs[0]
			for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
				if err := ctx.Put(out, ts, nil, 100); err != nil {
					return err
				}
				ctx.Compute(time.Millisecond)
				ctx.Sync()
			}
			return nil
		})
		s := rt.MustAddThread("s", 0, func(ctx *Ctx) error {
			in := ctx.thread.ins[0]
			for {
				if _, err := ctx.GetLatest(in); err != nil {
					return err
				}
				ctx.Compute(3 * time.Millisecond)
				ctx.Sync()
			}
		})
		p.MustOutput(c1)
		s.MustInput(c1)
		if err := rt.RunFor(300 * time.Millisecond); err != nil {
			t.Fatalf("%s: %v", coll.Name(), err)
		}
		a, err := trace.Analyze(rec, trace.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", coll.Name(), err)
		}
		if a.ItemsTotal == 0 {
			t.Fatalf("%s: no items", coll.Name())
		}
	}
}

func TestWriteStatus(t *testing.T) {
	rt, _ := buildChain(t, core.PolicyMin(), 5*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let some real work happen
	var buf bytes.Buffer
	rt.WriteStatus(&buf)
	out := buf.String()
	for _, want := range []string{"ARU controller state", "C1", "C2", "buffer", "puts"} {
		if !strings.Contains(out, want) {
			t.Errorf("status missing %q:\n%s", want, out)
		}
	}
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	// Disabled ARU: no controller section.
	rt2, _ := buildChain(t, core.PolicyOff(), 5*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond)
	if err := rt2.Start(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	rt2.WriteStatus(&buf)
	if strings.Contains(buf.String(), "ARU controller state") {
		t.Error("disabled policy must not print controller state")
	}
	rt2.Stop()
	rt2.Wait()
}
