package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/vt"
)

// TestElasticConservationOracle is the differential oracle for the
// whole elastic loop: a bottleneck stage under heavy per-item cost is
// scaled up into a replica pool, the load then collapses and the pool
// is drained back down — and across the full scale-up → scale-down
// lifecycle every produced item is delivered downstream exactly once
// (no duplicates, no losses; produced == delivered + shed with shed 0
// before Stop). The run is entirely on the virtual clock, so it is
// -race -count=2 safe and independent of wall-clock scheduling.
func TestElasticConservationOracle(t *testing.T) {
	const (
		items      = 400
		heavyItems = 120
		heavyCost  = 40 * time.Millisecond // ≫ target: forces scale-up
		lightCost  = 2 * time.Millisecond  // ≪ band: forces scale-down
	)
	reg := metrics.NewRegistry()
	cfg := Config{
		TargetPeriod: 12 * time.Millisecond,
		Stages:       []string{"worker"},
		Tick:         10 * time.Millisecond,
	}
	rt := runtime.New(runtime.Options{
		Clock:        clock.NewVirtual(),
		ARU:          core.PolicyMin(),
		Metrics:      reg,
		ControlLoops: []runtime.ControlLoop{Loop(cfg)},
	})
	qin := rt.MustAddQueue("Qin", 0, runtime.WithQueueCapacity(8))
	qout := rt.MustAddQueue("Qout", 0, runtime.WithQueueCapacity(8))

	// Counters are atomics and the dedupe ledger is mutex-guarded: the
	// worker runs as several concurrent incarnations mid-test.
	var produced, delivered, processed atomic.Int64
	src := rt.MustAddThread("src", 0, func(ctx *runtime.Ctx) error {
		out := ctx.Outs()[0]
		var ts vt.Timestamp
		for !ctx.Stopped() {
			if int(ts) >= items {
				ctx.Idle(time.Millisecond)
				continue
			}
			ts++
			if err := ctx.Put(out, ts, nil, 8); err != nil {
				return nil
			}
			produced.Add(1)
			ctx.Sync()
		}
		return nil
	})
	worker := rt.MustAddThread("worker", 0, func(ctx *runtime.Ctx) error {
		in, out := ctx.Ins()[0], ctx.Outs()[0]
		for {
			m, err := ctx.Get(in)
			if err != nil {
				if errors.Is(err, runtime.ErrShutdown) || errors.Is(err, runtime.ErrDraining) {
					return nil
				}
				return err
			}
			cost := lightCost
			if processed.Add(1) <= heavyItems {
				cost = heavyCost
			}
			ctx.Compute(cost)
			if err := ctx.Put(out, m.TS, nil, 8); err != nil {
				return nil
			}
			ctx.Sync() // measures this incarnation's current-STP

		}
	})
	var mu sync.Mutex
	seen := make(map[vt.Timestamp]int)
	var dup atomic.Int64
	sink := rt.MustAddThread("sink", 0, func(ctx *runtime.Ctx) error {
		in := ctx.Ins()[0]
		for {
			m, err := ctx.Get(in)
			if err != nil {
				if errors.Is(err, runtime.ErrShutdown) {
					return nil
				}
				return err
			}
			mu.Lock()
			seen[m.TS]++
			if seen[m.TS] > 1 {
				dup.Add(1)
			}
			mu.Unlock()
			delivered.Add(1)
			ctx.Sync()
		}
	})
	src.MustOutput(qin)
	worker.MustInput(qin)
	worker.MustOutput(qout)
	sink.MustInput(qout)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Both bounded single-consumer queues materialize as rings, so the
	// oracle covers the ring's parks on the virtual clock.
	for _, q := range []*runtime.BufferRef{qin, qout} {
		if q.Backend() != "ring" {
			t.Fatalf("%s materialized as %q, want ring", q.Name(), q.Backend())
		}
	}
	// Wait (in real time; virtual time free-runs) for the full
	// lifecycle: every item delivered AND the replica pool drained back
	// to zero by the light phase.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if delivered.Load() == items && rt.ReplicaCount("worker") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lifecycle incomplete after 30s wall: delivered %d/%d, replicas %d",
				delivered.Load(), items, rt.ReplicaCount("worker"))
		}
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once conservation across the elastic lifecycle.
	if dup.Load() != 0 {
		t.Fatalf("%d duplicate deliveries through the replicated stage", dup.Load())
	}
	if got, want := delivered.Load(), produced.Load(); got != want {
		t.Fatalf("conservation broke: produced %d, delivered %d", want, got)
	}
	mu.Lock()
	for ts := vt.Timestamp(1); int(ts) <= items; ts++ {
		if seen[ts] != 1 {
			mu.Unlock()
			t.Fatalf("item %d delivered %d times, want exactly 1", ts, seen[ts])
		}
	}
	mu.Unlock()
	var shed int64
	for _, bs := range rt.Snapshot().Buffers {
		shed += bs.ShedItems
	}
	if shed != 0 {
		t.Fatalf("post-completion stop shed %d items, want 0", shed)
	}

	// Both halves of the lifecycle actually happened.
	ls := metrics.Labels{"stage": "worker"}
	ups := reg.Counter(MetricScaleUps, "", ls).Value()
	downs := reg.Counter(MetricScaleDowns, "", ls).Value()
	if ups == 0 {
		t.Fatal("heavy phase never scaled the worker up")
	}
	if downs == 0 {
		t.Fatal("light phase never scaled the worker down")
	}
	if downs != ups {
		t.Fatalf("asymmetric lifecycle: %d scale-ups, %d scale-downs (pool must drain to zero)", ups, downs)
	}
	if g := reg.Gauge(MetricReplicas, "", ls).Value(); g != 0 {
		t.Fatalf("replica gauge reads %d after the pool drained", g)
	}
}

// TestLoopRespectsAllowlistAndSources: the scheduler only ever touches
// allowlisted stages, and never considers sources (which cannot be
// replicated). White-box over newScheduler's discovery.
func TestLoopRespectsAllowlistAndSources(t *testing.T) {
	rt := runtime.New(runtime.Options{Clock: clock.NewVirtual()})
	q := rt.MustAddQueue("Q", 0)
	q2 := rt.MustAddQueue("Q2", 0)
	src := rt.MustAddThread("src", 0, func(ctx *runtime.Ctx) error { return nil })
	mid := rt.MustAddThread("mid", 0, func(ctx *runtime.Ctx) error { return nil })
	sink := rt.MustAddThread("sink", 0, func(ctx *runtime.Ctx) error { return nil })
	src.MustOutput(q)
	mid.MustInput(q)
	mid.MustOutput(q2)
	sink.MustInput(q2)

	all := newScheduler(rt, Config{TargetPeriod: time.Millisecond}.withDefaults())
	if _, ok := all.stages["src"]; ok {
		t.Fatal("source stage entered the scheduler's eligible set")
	}
	if len(all.stages) != 2 {
		t.Fatalf("eligible set %v, want exactly {mid, sink}", stageNames(all))
	}

	only := newScheduler(rt, Config{TargetPeriod: time.Millisecond, Stages: []string{"mid"}}.withDefaults())
	if len(only.stages) != 1 || only.stages["mid"] == nil {
		t.Fatalf("allowlisted set %v, want exactly {mid}", stageNames(only))
	}
}

func stageNames(s *scheduler) []string {
	var out []string
	for name := range s.stages {
		out = append(out, name)
	}
	return out
}

// TestPickHostSpreadsByWeight: placement is least-weighted-load-first
// over the configured host set, deterministically tie-broken by
// listing order.
func TestPickHostSpreadsByWeight(t *testing.T) {
	s := &scheduler{
		cfg:      Config{Hosts: []int{0, 1, 2}, Weights: map[string]float64{"heavy": 3}}.withDefaults(),
		hostLoad: make(map[int]float64),
	}
	st := &stage{name: "heavy"}
	var got []int
	for i := 0; i < 4; i++ {
		h := s.pickHost()
		got = append(got, h)
		st.placed = append(st.placed, h)
		s.hostLoad[h] += s.cfg.weight(st.name)
	}
	want := []int{0, 1, 2, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("placement order %v, want %v", got, want)
	}
	// Retirement releases the load LIFO (hosts 0 then 2); host 2 is now
	// the only unloaded candidate and must win the next placement.
	s.unplace(st)
	s.unplace(st)
	if h := s.pickHost(); h != 2 {
		t.Fatalf("after two retirements placement chose host %d, want 2 (load released)", h)
	}

	// No host set: inherit the primary's placement.
	bare := &scheduler{cfg: Config{}.withDefaults(), hostLoad: make(map[int]float64)}
	if h := bare.pickHost(); h != -1 {
		t.Fatalf("hostless placement returned %d, want -1 (inherit)", h)
	}
}
