package aru_test

import (
	"errors"
	"testing"
	"time"

	aru "repro"
)

// buildFanIn constructs two sources feeding one joiner through separate
// channels via the public API, returning the runtime and recorder.
func buildFanIn(t *testing.T, policy aru.Policy, perNode map[string]aru.Compressor) (*aru.Runtime, *aru.Recorder) {
	t.Helper()
	policy.PerNode = perNode
	rec := aru.NewRecorder()
	rt := aru.New(aru.Options{Clock: aru.NewVirtualClock(), ARU: policy, Recorder: rec})

	chA := rt.MustAddChannel("A", 0)
	chB := rt.MustAddChannel("B", 0)

	source := func(period time.Duration) aru.Body {
		return func(ctx *aru.Ctx) error {
			for ts := aru.Timestamp(1); !ctx.Stopped(); ts++ {
				ctx.Compute(period)
				if err := ctx.Put(ctx.Outs()[0], ts, nil, 1000); err != nil {
					return err
				}
				ctx.Sync()
			}
			return nil
		}
	}
	srcA := rt.MustAddThread("srcA", 0, source(5*time.Millisecond))
	srcB := rt.MustAddThread("srcB", 0, source(7*time.Millisecond))
	join := rt.MustAddThread("join", 0, func(ctx *aru.Ctx) error {
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			if _, err := ctx.GetLatest(ctx.Ins()[1]); err != nil {
				return err
			}
			ctx.Compute(40 * time.Millisecond)
			ctx.Emit()
			ctx.Sync()
		}
	})
	srcA.MustOutput(chA)
	srcB.MustOutput(chB)
	join.MustInput(chA)
	join.MustInput(chB)
	return rt, rec
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rt, rec := buildFanIn(t, aru.PolicyMin(), nil)
	if err := rt.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := aru.Analyze(rec, 500*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outputs < 50 {
		t.Fatalf("outputs = %d, want a ~40ms-period stream", a.Outputs)
	}
	// With ARU-min both sources throttle toward the joiner's 40ms.
	if a.WastedMemPct > 30 {
		t.Errorf("wasted %.1f%% with ARU-min, expected mostly-throttled sources", a.WastedMemPct)
	}
}

func TestPublicAPINoARUWastes(t *testing.T) {
	rt, rec := buildFanIn(t, aru.PolicyOff(), nil)
	if err := rt.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := aru.Analyze(rec, 500*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.WastedMemPct < 50 {
		t.Errorf("wasted only %.1f%% without ARU; sources at 5/7ms vs a 40ms joiner should waste most items", a.WastedMemPct)
	}
}

func TestPublicAPICustomCompressor(t *testing.T) {
	// A user-defined operator on the sources: always honor the joiner
	// but never exceed 25ms, keeping some slack. Exercises
	// Policy.PerNode + CompressorFunc through the façade.
	capAt := func(limit aru.STP) aru.Compressor {
		return aru.CompressorFunc{
			FuncName: "capped-min",
			Fn: func(vec []aru.STP) aru.STP {
				v := aru.MinCompressor.Compress(vec)
				if v.Known() && v > limit {
					return limit
				}
				return v
			},
		}
	}
	per := map[string]aru.Compressor{
		"srcA": capAt(aru.STP(25 * time.Millisecond)),
		"srcB": capAt(aru.STP(25 * time.Millisecond)),
	}
	rt, rec := buildFanIn(t, aru.PolicyMin(), per)
	if err := rt.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := aru.Analyze(rec, 500*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Sources run at ~25ms while the joiner consumes at ~40ms: some
	// waste remains by design, but far less than unthrottled.
	if a.WastedMemPct < 10 || a.WastedMemPct > 70 {
		t.Errorf("capped compressor wasted %.1f%%, want an intermediate level", a.WastedMemPct)
	}
}

func TestPublicAPIFilters(t *testing.T) {
	p := aru.PolicyMax()
	p.NewFilter = func() aru.Filter { return aru.NewEWMAFilter(0.4) }
	rt, rec := buildFanIn(t, p, nil)
	if err := rt.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := aru.Analyze(rec, 500*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITrackerAndScenario(t *testing.T) {
	app, err := aru.NewTracker(aru.TrackerConfig{Seed: 5, Policy: aru.PolicyMax()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := app.Run(20*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outputs == 0 {
		t.Fatal("tracker produced no outputs")
	}
	r, err := aru.RunScenario(aru.Scenario{Duration: 20 * time.Second, Warmup: 2 * time.Second, Seeds: []int64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputMean <= 0 {
		t.Fatal("scenario produced no throughput")
	}
	if aru.DefaultTrackerTiming().CameraPeriod != 33*time.Millisecond {
		t.Error("DefaultTrackerTiming broken")
	}
	if aru.PaperTrackerSizes().Frame != 738<<10 {
		t.Error("PaperTrackerSizes broken")
	}
}

func TestPublicAPIRemote(t *testing.T) {
	srv, err := aru.NewRemoteServer(aru.RemoteServerConfig{Addr: "127.0.0.1:0"}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prod, err := aru.DialRemoteProducer(srv.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := aru.DialRemoteConsumer(srv.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if _, err := prod.Put(1, []byte("hi"), 0); err != nil {
		t.Fatal(err)
	}
	item, err := cons.GetLatest(aru.STPUnknown)
	if err != nil {
		t.Fatal(err)
	}
	if item.TS != 1 || string(item.Payload) != "hi" {
		t.Fatalf("item = %+v", item)
	}
}

func TestPublicAPIErrShutdown(t *testing.T) {
	rec := aru.NewRecorder()
	rt := aru.New(aru.Options{Clock: aru.NewVirtualClock(), Recorder: rec})
	ch := rt.MustAddChannel("c", 0)
	p := rt.MustAddThread("p", 0, func(ctx *aru.Ctx) error { ctx.Park(); return nil })
	var sawShutdown bool
	s := rt.MustAddThread("s", 0, func(ctx *aru.Ctx) error {
		_, err := ctx.GetLatest(ctx.Ins()[0])
		sawShutdown = errors.Is(err, aru.ErrShutdown)
		return err
	})
	p.MustOutput(ch)
	s.MustInput(ch)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if !sawShutdown {
		t.Fatal("consumer must observe ErrShutdown on Stop")
	}
}

func TestPublicAPIClockConstructors(t *testing.T) {
	if aru.NewVirtualClock() == nil || aru.NewRealClock() == nil || aru.NewScaledClock(10) == nil {
		t.Fatal("clock constructors broken")
	}
	clk := aru.NewVirtualClock()
	cluster := aru.NewCluster(clk, aru.ClusterSpec{Hosts: 3, Link: aru.GigabitEthernet})
	if cluster.Hosts() != 3 {
		t.Fatal("cluster constructor broken")
	}
	if aru.NewDGC().Name() != "dgc" || aru.NewTGC().Name() != "tgc" || aru.NewNoGC().Name() != "none" {
		t.Fatal("collector constructors broken")
	}
}
