package remote

// Chaos suite: drives a real runtime pipeline (camera → remote channel →
// display, ARU feedback on) across scripted network faults and asserts
// the fault-tolerance contract end to end:
//
//   - the pipeline never deadlocks (shutdown completes under a timeout),
//   - no put is double-inserted (acked ≤ server puts ≤ attempts),
//   - consumption stays monotone (get-latest discipline survives replay),
//   - the controller reports the endpoint degraded while feedback is
//     stale and healthy again after the wire heals,
//   - throughput resumes after partition, slow wire, and server restart.
//
// Every script is seeded (FAULTNET_SEED pins it in CI), so a failure
// reproduces.

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/runtime"
	"repro/internal/vt"
)

// chaosCounters aggregates what the thread bodies observed; all fields
// are read by the test goroutine while the pipeline runs.
type chaosCounters struct {
	attempts     atomic.Int64 // puts tried
	acked        atomic.Int64 // puts acknowledged (incl. after reattach)
	degradedPuts atomic.Int64 // puts that exhausted the retry budget
	consumed     atomic.Int64 // items displayed
	degradedGets atomic.Int64 // gets that exhausted the retry budget
	reattaches   atomic.Int64 // operations that succeeded via reattach
	orderBreaks  atomic.Int64 // timestamp regressions seen by the display
}

// chaosPipeline is one assembled camera → frames → display application
// over a wire-backed channel.
type chaosPipeline struct {
	rt       *runtime.Runtime
	ch       *runtime.ChannelRef
	cam, dis *runtime.Thread
	ctr      *chaosCounters
}

// buildChaosPipeline wires the two-thread pipeline against the server at
// addr with tight, deterministic fault tolerance: millisecond backoff, a
// generous retry budget (ops should ride out the scripted faults), and a
// short staleness TTL so degradation is observable within the test.
func buildChaosPipeline(t *testing.T, addr string) *chaosPipeline {
	t.Helper()
	rt := runtime.New(runtime.Options{ARU: core.PolicyMin()})
	ch, err := rt.AddRemoteChannel("frames", 0, addr, runtime.WithRemoteTuning(buffer.RemoteTuning{
		CallTimeout: 2 * time.Second,
		GetTimeout:  500 * time.Millisecond,
		RetryBase:   5 * time.Millisecond,
		RetryCap:    40 * time.Millisecond,
		RetryJitter: -1, // deterministic schedule
		MaxRetries:  40,
		Seed:        1719,
		StaleTTL:    120 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctr := &chaosCounters{}

	var ts atomic.Int64
	cam := rt.MustAddThread("camera", 0, func(ctx *runtime.Ctx) error {
		out := ctx.Outs()[0]
		for !ctx.Stopped() {
			n := vt.Timestamp(ts.Add(1))
			ctr.attempts.Add(1)
			err := ctx.Put(out, n, []byte("frame"), 64)
			switch {
			case err == nil:
				ctr.acked.Add(1)
			case errors.Is(err, runtime.ErrReattached):
				ctr.acked.Add(1)
				ctr.reattaches.Add(1)
			case errors.Is(err, runtime.ErrShutdown):
				return nil
			case errors.Is(err, runtime.ErrDegraded):
				// The item was shed; keep producing.
				ctr.degradedPuts.Add(1)
			default:
				return err
			}
			ctx.Compute(2 * time.Millisecond)
			ctx.Sync()
		}
		return nil
	})
	cam.MustOutput(ch)

	var last atomic.Int64
	dis := rt.MustAddThread("display", 0, func(ctx *runtime.Ctx) error {
		in := ctx.Ins()[0]
		for !ctx.Stopped() {
			msg, err := ctx.Get(in)
			switch {
			case err == nil:
			case errors.Is(err, runtime.ErrReattached):
				ctr.reattaches.Add(1)
			case errors.Is(err, runtime.ErrShutdown):
				return nil
			case errors.Is(err, runtime.ErrDegraded):
				ctr.degradedGets.Add(1)
				ctx.Sync()
				continue
			default:
				return err
			}
			if int64(msg.TS) < last.Load() {
				ctr.orderBreaks.Add(1)
			}
			last.Store(int64(msg.TS))
			ctr.consumed.Add(1)
			ctx.Compute(3 * time.Millisecond)
			ctx.Sync()
		}
		return nil
	})
	dis.MustInput(ch)

	return &chaosPipeline{rt: rt, ch: ch, cam: cam, dis: dis, ctr: ctr}
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopAndWait shuts the pipeline down under a deadlock timeout.
func stopAndWait(t *testing.T, rt *runtime.Runtime) {
	t.Helper()
	rt.Stop()
	done := make(chan error, 1)
	go func() { done <- rt.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pipeline error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("pipeline deadlocked on shutdown")
	}
}

// assertNoDuplicates checks the put-count oracle against a server that
// survived the whole scenario: every acknowledged put was applied
// exactly once, and nothing was applied that was never attempted.
func assertNoDuplicates(t *testing.T, s *Server, ctr *chaosCounters) {
	t.Helper()
	puts := s.Channel("frames").Stats().Puts
	acked, attempts := ctr.acked.Load(), ctr.attempts.Load()
	if puts < acked || puts > attempts {
		t.Fatalf("server puts = %d outside [acked %d, attempts %d]: lost or duplicated inserts", puts, acked, attempts)
	}
	if ctr.orderBreaks.Load() != 0 {
		t.Fatalf("display saw %d timestamp regressions", ctr.orderBreaks.Load())
	}
}

func newChaosServer(t *testing.T, ctl *faultnet.Control, addr string) *Server {
	t.Helper()
	ln, err := ctl.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Listener: ln}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosPartitionMidStream partitions the wire mid-stream: every
// live connection is severed and redials are cut off. The controller
// must report the endpoint degraded once feedback passes the staleness
// TTL; after healing, the pipeline re-attaches, resumes, and reports
// healthy again.
func TestChaosPartitionMidStream(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	srv := newChaosServer(t, ctl, "127.0.0.1:0")
	defer srv.Close()
	p := buildChaosPipeline(t, srv.Addr())
	if err := p.rt.Start(); err != nil {
		t.Fatal(err)
	}

	// Warm up until feedback flows end to end: the camera's target
	// period derives from the remote summary.
	waitUntil(t, 10*time.Second, "warmup traffic", func() bool {
		return p.ctr.acked.Load() >= 20 && p.ctr.consumed.Load() >= 5
	})
	waitUntil(t, 10*time.Second, "feedback to flow", func() bool {
		return p.rt.Controller().TargetPeriod(p.cam.ID()).Known()
	})
	if p.rt.Controller().Degraded(p.ch.ID()) {
		t.Fatal("healthy pipeline must not be degraded")
	}

	ctl.Partition()
	// Feedback stops flowing; past the 120ms staleness TTL the
	// controller must notice.
	waitUntil(t, 5*time.Second, "degraded state under partition", func() bool {
		return p.rt.Controller().Degraded(p.ch.ID())
	})
	time.Sleep(200 * time.Millisecond) // let operations fail and retry under the partition
	ackedAtHeal := p.ctr.acked.Load()
	consumedAtHeal := p.ctr.consumed.Load()
	ctl.Heal()

	// The pipeline must resume and the controller recover.
	waitUntil(t, 10*time.Second, "production to resume", func() bool {
		return p.ctr.acked.Load() >= ackedAtHeal+10
	})
	waitUntil(t, 10*time.Second, "consumption to resume", func() bool {
		return p.ctr.consumed.Load() >= consumedAtHeal+3
	})
	waitUntil(t, 10*time.Second, "healthy state after heal", func() bool {
		return !p.rt.Controller().Degraded(p.ch.ID())
	})

	stopAndWait(t, p.rt)
	assertNoDuplicates(t, srv, p.ctr)
	if p.ctr.reattaches.Load() == 0 {
		t.Fatal("partition healed without a single reattach: the fault never bit")
	}
}

// TestChaosSlowWireAndSever scripts a slow wire (scripted read delays
// with jitter) and one mid-stream severed connection. The pipeline must
// absorb the latency without faults and ride out the sever with a
// reattach; ordering and the no-duplicate oracle hold throughout.
func TestChaosSlowWireAndSever(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	srv := newChaosServer(t, ctl, "127.0.0.1:0")
	defer srv.Close()
	p := buildChaosPipeline(t, srv.Addr())
	if err := p.rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "warmup traffic", func() bool {
		return p.ctr.acked.Load() >= 20 && p.ctr.consumed.Load() >= 5
	})

	// Slow every server-side read by 10ms ± 3ms jitter for a while.
	ctl.SetDelays(10*time.Millisecond, 0, 3*time.Millisecond)
	time.Sleep(250 * time.Millisecond)

	// Sever whichever connection reads next, mid-stream.
	ctl.DropReadAfter(0)
	time.Sleep(250 * time.Millisecond)
	ctl.SetDelays(0, 0, 0)

	acked := p.ctr.acked.Load()
	waitUntil(t, 10*time.Second, "throughput after heal", func() bool {
		return p.ctr.acked.Load() >= acked+20
	})

	stopAndWait(t, p.rt)
	assertNoDuplicates(t, srv, p.ctr)
	if ctl.Injected() == 0 {
		t.Fatal("no fault was injected; the scenario proved nothing")
	}
	if p.ctr.reattaches.Load() == 0 {
		t.Fatal("severed connection never reattached")
	}
}

// TestChaosServerRestart kills the server mid-stream (wires severed
// first, so clients observe transport faults rather than a clean
// shutdown) and brings a fresh one up on the same address. Clients must
// redial, replay their attachments against the new server, and resume.
func TestChaosServerRestart(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	srv := newChaosServer(t, ctl, "127.0.0.1:0")
	addr := srv.Addr()
	p := buildChaosPipeline(t, addr)
	if err := p.rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "warmup traffic", func() bool {
		return p.ctr.acked.Load() >= 20 && p.ctr.consumed.Load() >= 5
	})

	// Sever abruptly, then take the server down. Without the partition
	// the server's shutdown would answer in-flight calls with a clean
	// "closed" — a terminal signal; a crash must look like a crash.
	ctl.Partition()
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	ctl.Heal()

	// A fresh server on the same address: hosted state is empty, client
	// attachments are replayed from the client side.
	var srv2 *Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := ctl.Listen(addr)
		if err == nil {
			if srv2, err = NewServer(ServerConfig{Listener: ln}, "frames"); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	ackedAtRestart := p.ctr.acked.Load()
	consumedAtRestart := p.ctr.consumed.Load()
	waitUntil(t, 15*time.Second, "production against the new server", func() bool {
		return p.ctr.acked.Load() >= ackedAtRestart+10
	})
	waitUntil(t, 15*time.Second, "consumption against the new server", func() bool {
		return p.ctr.consumed.Load() >= consumedAtRestart+3
	})

	stopAndWait(t, p.rt)
	if p.ctr.orderBreaks.Load() != 0 {
		t.Fatalf("display saw %d timestamp regressions across the restart", p.ctr.orderBreaks.Load())
	}
	if puts := srv2.Channel("frames").Stats().Puts; puts == 0 {
		t.Fatal("new server never received a put")
	}
	if p.ctr.reattaches.Load() == 0 {
		t.Fatal("restart survived without a reattach: the fault never bit")
	}
}

var _ net.Listener = (*faultnet.Listener)(nil)
