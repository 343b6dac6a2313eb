// Package soak is the lifecycle torture harness behind cmd/soak: it
// runs seeded kill/restart/chaos/drain cycles over FIFO pipelines on a
// real clock and asserts the conservation invariant outright —
//
//	produced == delivered + explicitly_shed (+ discipline skips on a
//	latest-discipline wire edge)
//
// with zero duplicates, and a clean (deadline-not-hit) drain shedding
// exactly 0 items. Every cycle builds a fresh Runtime, hammers it with
// supervisor-restarted panics (and, on remote cycles, faultnet wire
// chaos: scripted delays, a mid-stream sever, a partition/heal pulse),
// then ends with Runtime.Drain — the exact lifecycle sequence the
// drain subsystem promises to make lossless.
//
// The harness is seeded but runs on the wall clock, so item counts
// vary run to run; the conservation identity must hold for every
// count. That is the point: the oracle is an invariant, not a pin.
package soak

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/rand"
	"repro/internal/remote"
	rt "repro/internal/runtime"
	"repro/internal/vt"
)

// Config shapes one soak run. Zero values take the defaults below.
type Config struct {
	// Seed drives every random draw: kill placement, chaos scripting,
	// per-cycle substreams. Same seed → same schedule of injected
	// faults (the flow itself is wall-clock timed).
	Seed int64
	// Cycles is the number of build→run→chaos→drain→verify rounds.
	Cycles int
	// Relays is the number of relay stages between source and sink.
	Relays int
	// Kills is the number of seeded relay panics injected per cycle
	// (each restarted by the supervisor).
	Kills int
	// Run is the load phase per cycle before the drain begins.
	Run time.Duration
	// DrainDeadline bounds each cycle's graceful drain. It is generous
	// by default: a correct flush finishes early and Clean=true is part
	// of the oracle.
	DrainDeadline time.Duration
	// Period is the source's inter-item production period.
	Period time.Duration
	// Capacity bounds every queue edge.
	Capacity int
	// Remote routes the middle edge of every odd cycle over a real
	// socket (remote channel server) wrapped in faultnet chaos.
	Remote bool
	// Out receives per-cycle progress lines; nil is silent.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1719
	}
	if c.Cycles <= 0 {
		c.Cycles = 4
	}
	if c.Relays <= 0 {
		c.Relays = 3
	}
	if c.Kills < 0 {
		c.Kills = 0
	}
	if c.Run <= 0 {
		c.Run = 1500 * time.Millisecond
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 10 * time.Second
	}
	if c.Period <= 0 {
		c.Period = 2 * time.Millisecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	return c
}

// Quick returns the CI smoke configuration: two cycles (one local,
// one remote-chaos when Remote is on), short load phases, same
// invariants.
func Quick(seed int64) Config {
	return Config{Seed: seed, Cycles: 2, Relays: 2, Kills: 2,
		Run: 500 * time.Millisecond, Period: time.Millisecond, Remote: true}
}

// CycleResult is one cycle's accounting and verdicts.
type CycleResult struct {
	Cycle     int
	Remote    bool
	Produced  int64 // successful source puts
	Delivered int64 // sink consumptions
	Drained   int64 // items delivered after their buffer sealed
	Shed      int64 // items explicitly discarded at settle
	Skipped   int64 // latest-discipline skips on the wire edge (remote cycles)
	Dups      int64 // duplicate timestamps at the sink (must be 0)
	Clean     bool  // drain finished before its deadline
	DrainMs   float64
	Kills     int   // injected panics that actually fired
	Restarts  int   // supervisor restarts consumed
	Faults    int64 // faultnet injections (remote cycles)
	// Violations lists every oracle this cycle broke (empty = pass).
	Violations []string

	plannedKills int // cardinality of the seeded kill schedule
}

// Report aggregates a run.
type Report struct {
	Seed       int64
	Cycles     []CycleResult
	Produced   int64
	Delivered  int64
	Drained    int64
	Shed       int64
	Skipped    int64
	Dups       int64
	Violations []string
}

// OK reports that every cycle passed every oracle.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Run executes the soak: cfg.Cycles rounds of build → load (+ seeded
// kills, + wire chaos on remote cycles) → drain → verify.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed}
	for i := 0; i < cfg.Cycles; i++ {
		remoteCycle := cfg.Remote && i%2 == 1
		cr, err := runCycle(cfg, i, remoteCycle)
		if err != nil {
			return rep, fmt.Errorf("soak: cycle %d: %w", i, err)
		}
		rep.Cycles = append(rep.Cycles, *cr)
		rep.Produced += cr.Produced
		rep.Delivered += cr.Delivered
		rep.Drained += cr.Drained
		rep.Shed += cr.Shed
		rep.Skipped += cr.Skipped
		rep.Dups += cr.Dups
		for _, v := range cr.Violations {
			rep.Violations = append(rep.Violations, fmt.Sprintf("cycle %d: %s", i, v))
		}
		if cfg.Out != nil {
			kind := "local"
			if remoteCycle {
				kind = "remote"
			}
			fmt.Fprintf(cfg.Out, "cycle %d (%s): produced %d delivered %d drained %d shed %d skipped %d dups %d kills %d restarts %d clean %v drain %.1fms violations %d\n",
				i, kind, cr.Produced, cr.Delivered, cr.Drained, cr.Shed, cr.Skipped, cr.Dups, cr.Kills, cr.Restarts, cr.Clean, cr.DrainMs, len(cr.Violations))
		}
	}
	return rep, nil
}

// pipeState is the shared mutable state of one cycle's pipeline. The
// counters are atomics because the supervisor may run a relay body
// again after a panic while the harness reads progress; the sink's
// seen map is single-goroutine and only read after Wait.
type pipeState struct {
	produced   atomic.Int64
	delivered  atomic.Int64
	killsFired atomic.Int64
	killsArmed atomic.Bool
	bodyFault  atomic.Value // first unexpected body error (string)
	seen       map[vt.Timestamp]int
	order      []vt.Timestamp
}

func (ps *pipeState) fault(format string, args ...any) {
	ps.bodyFault.CompareAndSwap(nil, fmt.Sprintf(format, args...))
}

// runCycle builds source → relay₀ → … → relayₙ → sink over bounded
// FIFO queues (remote cycles swap the edge between relay₀ and relay₁
// for a faultnet-wrapped wire), loads it for cfg.Run with seeded relay
// panics armed, then drains and audits the ledger.
func runCycle(cfg Config, cycle int, remoteCycle bool) (*CycleResult, error) {
	rng := rand.New(rand.Split(uint64(cfg.Seed), uint64(cycle)))
	cr := &CycleResult{Cycle: cycle, Remote: remoteCycle}
	ps := &pipeState{seen: make(map[vt.Timestamp]int)}
	ps.killsArmed.Store(true)

	relays := cfg.Relays
	if remoteCycle && relays < 2 {
		relays = 2 // the wire needs a producer relay and a consumer relay
	}

	// Seeded kill schedule: each kill targets one relay at a small
	// local iteration, so every kill fires well inside the load phase
	// and is fully restarted before the drain begins.
	killAt := make([]map[int64]bool, relays)
	for i := range killAt {
		killAt[i] = map[int64]bool{}
	}
	for k := 0; k < cfg.Kills; k++ {
		killAt[rng.Intn(relays)][rng.Int63n(40)+3] = true
	}
	for _, m := range killAt {
		cr.plannedKills += len(m)
	}

	var ctl *faultnet.Control
	var srv *remote.Server
	if remoteCycle {
		ctl = faultnet.New(cfg.Seed + int64(cycle))
		ln, err := ctl.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv, err = remote.NewServer(remote.ServerConfig{Listener: ln}, "wire")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		// Scripted wire friction from the start; the sever and the
		// partition pulse land mid-run below.
		ctl.SetDelays(200*time.Microsecond, 200*time.Microsecond, 300*time.Microsecond)
		ctl.DropWriteAfter(16384 + rng.Int63n(16384))
	}

	r := rt.New(rt.Options{Clock: clock.NewReal()})

	// Edges: queue i feeds stage i+1; on remote cycles edge 1 (between
	// relay₀ and relay₁) is the wire.
	edges := make([]*rt.BufferRef, relays+1)
	for i := range edges {
		if remoteCycle && i == 1 {
			ref, err := r.AddRemoteChannel("wire", 0, srv.Addr())
			if err != nil {
				return nil, err
			}
			edges[i] = ref
			continue
		}
		ref, err := r.AddQueue(fmt.Sprintf("q%d", i), 0, rt.WithQueueCapacity(cfg.Capacity))
		if err != nil {
			return nil, err
		}
		edges[i] = ref
	}

	policy := rt.RestartPolicy{MaxRestarts: cfg.Kills + 4, Seed: cfg.Seed + 1}
	policy.Backoff.Base = 5 * time.Millisecond
	policy.Backoff.Cap = 20 * time.Millisecond
	policy.Backoff.Factor = 2

	src, err := r.AddThread("source", 0, sourceBody(ps, cfg.Period))
	if err != nil {
		return nil, err
	}
	if _, err := src.Output(edges[0]); err != nil {
		return nil, err
	}
	for i := 0; i < relays; i++ {
		wireIn := remoteCycle && i == 1
		th, err := r.AddThread(fmt.Sprintf("relay%d", i), 0,
			relayBody(ps, i, killAt[i], wireIn), rt.WithRestartOnFailure(policy))
		if err != nil {
			return nil, err
		}
		if _, err := th.Input(edges[i]); err != nil {
			return nil, err
		}
		if _, err := th.Output(edges[i+1]); err != nil {
			return nil, err
		}
	}
	sink, err := r.AddThread("sink", 0, sinkBody(ps))
	if err != nil {
		return nil, err
	}
	if _, err := sink.Input(edges[relays]); err != nil {
		return nil, err
	}

	if err := r.Start(); err != nil {
		return nil, err
	}

	// Load phase. Remote cycles pulse a partition through the middle of
	// it and heal before the drain, so the reconnect/replay machinery
	// must carry the stream across the outage without loss or dup.
	if remoteCycle {
		time.Sleep(cfg.Run / 3)
		ctl.Partition()
		time.Sleep(cfg.Run / 6)
		ctl.Heal()
		time.Sleep(cfg.Run / 2)
	} else {
		time.Sleep(cfg.Run)
	}

	// Disarm the kill schedule before draining: a panic inside the
	// drain window is deliberately unrecoverable (the supervisor treats
	// drain as terminal), which would turn a clean flush into a shed —
	// a different scenario than the one this harness pins. The seeded
	// kills all fire at small iteration counts, long before this point.
	ps.killsArmed.Store(false)
	drainRep := r.Drain(cfg.DrainDeadline)
	if err := r.Wait(); err != nil {
		return nil, err
	}

	cr.Produced = ps.produced.Load()
	cr.Delivered = ps.delivered.Load()
	cr.Drained = drainRep.Drained
	cr.Shed = drainRep.Shed
	cr.Clean = drainRep.Clean
	cr.DrainMs = float64(drainRep.Duration) / float64(time.Millisecond)
	cr.Kills = int(ps.killsFired.Load())
	for _, th := range r.Health().Threads {
		cr.Restarts += th.Restarts
	}
	if ctl != nil {
		cr.Faults = ctl.Injected()
	}
	for ts, n := range ps.seen {
		if n > 1 {
			cr.Dups += int64(n - 1)
		}
		if int64(ts) > cr.Produced {
			cr.Violations = append(cr.Violations, fmt.Sprintf("sink saw timestamp %d beyond produced %d (phantom item)", ts, cr.Produced))
		}
	}
	verify(cfg, cr, ps)
	return cr, nil
}

// verify audits one cycle against the oracles. Local cycles get the
// strict ledger — produced == delivered + shed, and a clean drain
// sheds 0, so produced == delivered exactly. Remote cycles route
// through a latest-discipline wire whose skips are the paper's drop
// discipline, not loss: the remainder produced − delivered − shed is
// attributed to Skipped and must exactly equal the timestamp gaps the
// sink observed — every item is accounted for, none vanish silently.
func verify(cfg Config, cr *CycleResult, ps *pipeState) {
	bad := func(format string, args ...any) {
		cr.Violations = append(cr.Violations, fmt.Sprintf(format, args...))
	}
	if cr.Produced == 0 {
		bad("source produced nothing: the cycle proves nothing")
	}
	if cr.Delivered == 0 {
		bad("sink delivered nothing: the pipeline never flowed")
	}
	if cr.Dups != 0 {
		bad("%d duplicate deliveries (want 0)", cr.Dups)
	}
	if !cr.Clean {
		bad("drain hit its %v deadline (want a clean flush)", cfg.DrainDeadline)
	}
	if f := ps.bodyFault.Load(); f != nil {
		bad("unexpected body error: %v", f)
	}
	if cr.Kills != cr.plannedKills {
		bad("injected %d kills, schedule called for %d", cr.Kills, cr.plannedKills)
	}
	for i := 1; i < len(ps.order); i++ {
		if ps.order[i] <= ps.order[i-1] {
			bad("delivery order regressed: ts %d after %d", ps.order[i], ps.order[i-1])
			break
		}
	}
	rem := cr.Produced - cr.Delivered - cr.Shed
	if cr.Remote {
		cr.Skipped = rem
		if rem < 0 {
			bad("conservation broke: delivered+shed exceeds produced by %d", -rem)
		}
		if cr.Faults == 0 {
			bad("faultnet injected nothing: the chaos script never bit")
		}
		// The skip ledger must balance against what the sink saw: gaps
		// in the delivered timestamp sequence plus the tail the sealed
		// wire jumped over. With zero dups these are arithmetically the
		// same count, so the assert is on the measured seen-set.
		var maxTS vt.Timestamp
		for ts := range ps.seen {
			if ts > maxTS {
				maxTS = ts
			}
		}
		gaps := int64(maxTS) - int64(len(ps.seen)) + (cr.Produced - int64(maxTS))
		if cr.Dups == 0 && gaps != rem {
			bad("skip ledger off: %d timestamp gaps vs %d unaccounted items", gaps, rem)
		}
	} else {
		if rem != 0 {
			bad("conservation broke: produced %d != delivered %d + shed %d", cr.Produced, cr.Delivered, cr.Shed)
		}
		if cr.Clean && cr.Shed != 0 {
			bad("clean drain shed %d items (want 0)", cr.Shed)
		}
	}
}

// sourceBody produces one item per period with consecutive timestamps,
// counting only puts the buffer accepted. A put rejected by quiesce
// (ErrDraining) or shutdown never existed for the ledger.
func sourceBody(ps *pipeState, period time.Duration) rt.Body {
	return func(ctx *rt.Ctx) error {
		out := ctx.Outs()[0]
		var ts vt.Timestamp
		for !ctx.Stopped() {
			ts++
			err := ctx.Put(out, ts, nil, 64)
			if err == nil || errors.Is(err, rt.ErrReattached) {
				ps.produced.Add(1)
			} else if errors.Is(err, rt.ErrDraining) || errors.Is(err, rt.ErrShutdown) {
				return nil
			} else {
				ps.fault("source put: %v", err)
				return nil
			}
			ctx.Idle(period)
		}
		return nil
	}
}

// relayBody forwards its input 1:1. The kill check runs at the top of
// the iteration — before Get — so a panic never strands an in-hand
// item: the unconsumed item stays in the queue for the restarted body
// (or for the drain accounting). Wire-fed relays poll TryGetLatest
// instead of blocking: a blocked wire get has no local producer to
// wake it after seal.
func relayBody(ps *pipeState, idx int, killAt map[int64]bool, wireIn bool) rt.Body {
	var iter int64
	return func(ctx *rt.Ctx) error {
		in, out := ctx.Ins()[0], ctx.Outs()[0]
		for !ctx.Stopped() {
			iter++
			if killAt[iter] && ps.killsArmed.Load() {
				ps.killsFired.Add(1)
				panic(fmt.Sprintf("soak: seeded kill in relay%d at iteration %d", idx, iter))
			}
			var msg rt.Msg
			var err error
			if wireIn {
				var ok bool
				msg, ok, err = ctx.TryGetLatest(in)
				if errors.Is(err, rt.ErrReattached) {
					err = nil
					if !ok {
						continue
					}
				}
				if err == nil && !ok {
					ctx.Idle(time.Millisecond)
					continue
				}
			} else {
				msg, err = ctx.Get(in)
				if errors.Is(err, rt.ErrReattached) {
					err = nil
				}
			}
			if err != nil {
				if errors.Is(err, rt.ErrShutdown) {
					return nil
				}
				return err // supervisor restarts (wire outages land here)
			}
			if perr := ctx.Put(out, msg.TS, nil, msg.Size); perr != nil {
				if errors.Is(perr, rt.ErrShutdown) || errors.Is(perr, rt.ErrReattached) {
					if errors.Is(perr, rt.ErrReattached) {
						continue
					}
					return nil
				}
				ps.fault("relay%d put: %v", idx, perr)
				return nil
			}
		}
		return nil
	}
}

// sinkBody records every delivery: the count, the multiset of
// timestamps (duplicate detector), and the order (monotonicity check).
func sinkBody(ps *pipeState) rt.Body {
	return func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		for !ctx.Stopped() {
			msg, err := ctx.Get(in)
			if errors.Is(err, rt.ErrReattached) {
				err = nil
			}
			if err != nil {
				if errors.Is(err, rt.ErrShutdown) {
					return nil
				}
				ps.fault("sink get: %v", err)
				return nil
			}
			ps.delivered.Add(1)
			ps.seen[msg.TS]++
			ps.order = append(ps.order, msg.TS)
			ctx.Emit()
		}
		return nil
	}
}
