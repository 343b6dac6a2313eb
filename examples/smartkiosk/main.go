// Smartkiosk runs the paper's Figure 1 pipeline — the two-fidelity Smart
// Kiosk tracker — and demonstrates two things the Figure 5 tracker
// cannot:
//
//  1. ARU feedback crossing a *queue*: decision records must not be lost,
//     so the decision queue grows without bound when the front of the
//     pipeline outruns the expensive high-fidelity tracker. ARU carries
//     the demand signal through the queue and the whole front slows down.
//
//  2. A user-defined compression operator (§3.3.2): the Decision stage
//     forwards only ~half of what it sees, so a rate-aware operator lets
//     the front run twice as fast as plain min would allow — doubling
//     displayed results while keeping the queue bounded.
//
//     go run ./examples/smartkiosk
//
// With -crashy, it instead demonstrates the thread-supervision
// subsystem on a kiosk-shaped pipeline with a deliberately unreliable
// digitizer: every 25th frame panics the stage. The supervisor contains
// each panic, restarts the digitizer on a capped-exponential backoff
// schedule, and the degraded health is visible in Runtime.Health() and
// WriteStatus while the rest of the pipeline keeps flowing:
//
//	go run ./examples/smartkiosk -crashy
//
// With -metrics ADDR (e.g. -metrics :8080), the crashy run additionally
// serves live observability on ADDR: /metrics (Prometheus text),
// /metrics.json, /status, and /health. Scrape it mid-run to watch the
// restart and stall counters move:
//
//	go run ./examples/smartkiosk -crashy -metrics :8080 &
//	curl -s localhost:8080/metrics | grep aru_thread_restarts_total
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	aru "repro"
)

func main() {
	crashy := flag.Bool("crashy", false, "inject a periodically panicking digitizer to demo supervised restarts")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /metrics.json, /status, /health on this address during -crashy (e.g. :8080)")
	flag.Parse()
	if *crashy {
		runCrashy(*metricsAddr)
		return
	}
	fmt.Println("smart kiosk: digitizer → low-fi tracker → decision ⇒(queue)⇒ high-fi tracker → GUI")
	fmt.Println("(decision forwards ~50% of records; high-fi is the 170ms bottleneck)")
	fmt.Println()
	fmt.Printf("%-22s %10s %12s %14s %12s\n", "variant", "outputs", "mem mean", "queue depth", "latency")

	for _, v := range []struct {
		name string
		cfg  aru.KioskConfig
		dur  time.Duration
	}{
		{"no-aru", aru.KioskConfig{Seed: 42, Policy: aru.PolicyOff()}, 60 * time.Second},
		{"aru-min", aru.KioskConfig{Seed: 42, Policy: aru.PolicyMin()}, 60 * time.Second},
		{"aru-min+rate-aware", aru.KioskConfig{Seed: 42, Policy: aru.PolicyMin(), DecisionAwareCompressor: true}, 60 * time.Second},
	} {
		app, err := aru.NewKiosk(v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Participate in the virtual clock from before Start until after
		// Stop, so no thread runs past the run's end before shutdown.
		type registrar interface{ Add(int) }
		reg, hasReg := app.Runtime.Clock().(registrar)
		if hasReg {
			reg.Add(1)
		}
		if err := app.Runtime.Start(); err != nil {
			log.Fatal(err)
		}
		app.Runtime.Clock().Sleep(v.dur)
		depth := app.Runtime.Buffer(app.DecisionQueue).Stats().Items
		app.Runtime.Stop()
		if hasReg {
			reg.Add(-1)
		}
		if err := app.Runtime.Wait(); err != nil {
			log.Fatal(err)
		}
		a, err := aru.Analyze(app.Recorder, v.dur/10, v.dur)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10d %9.2f MB %14d %12v\n",
			v.name, a.Outputs, a.All.MeanBytes/(1<<20), depth,
			a.LatencyMean.Round(time.Millisecond))
	}

	fmt.Println()
	fmt.Println("no-aru: the decision queue grows all run long (records may not be dropped).")
	fmt.Println("aru-min: feedback crosses the queue; the digitizer slows to the high-fi rate")
	fmt.Println("         — but over-throttles, because min doesn't know decision halves the flow.")
	fmt.Println("rate-aware: a user-defined operator (§3.3.2) scales the feedback by the")
	fmt.Println("         forwarding rate: ~2x the displayed results, queue still bounded.")
}

// runCrashy hand-wires a kiosk-shaped pipeline — digitizer → tracker →
// GUI — whose digitizer panics on every 25th frame, and puts the
// thread-supervision subsystem on display:
//
//   - the panic is contained and surfaced as a typed failure instead of
//     crashing the process;
//   - WithRestartOnFailure restarts the digitizer on a capped-exponential
//     backoff schedule (budget: 8 restarts), so the pipeline keeps
//     producing frames across failures;
//   - Runtime.Health and WriteStatus show the degraded state live: restart
//     counts, last failure, and — once the budget is exhausted — the
//     ErrPeerFailed cascade that winds down the rest of the pipeline.
func runCrashy(metricsAddr string) {
	fmt.Println("smart kiosk (crashy): digitizer panics every 25th frame; supervisor restarts it")
	fmt.Println()

	// The demo normally runs on the discrete-event virtual clock (15
	// simulated seconds in a few real milliseconds). With -metrics it
	// switches to the wall clock so there is a real scrape window: curl
	// the endpoint mid-run and watch the restart counters move.
	clk := aru.NewVirtualClock()
	if metricsAddr != "" {
		clk = aru.NewRealClock()
	}
	opts := aru.Options{
		Clock: clk,
		ARU:   aru.PolicyMin(),
		// Flag any thread whose heartbeat goes quiet for >2s of runtime
		// time (none should, here — the column demos the watchdog).
		StallTTL: 2 * time.Second,
	}
	if metricsAddr != "" {
		opts = aru.WithMetricsAddr(opts, metricsAddr)
	}
	rt := aru.New(opts)

	frames := rt.MustAddChannel("frames", 0)
	tracked := rt.MustAddChannel("tracked", 0)

	// The digitizer's frame counter lives *outside* the body so it
	// survives restarts: each incarnation resumes where the previous one
	// died instead of replaying (and re-panicking on) the same frame.
	var frame aru.Timestamp
	displayed := 0

	dig := rt.MustAddThread("digitizer", 0, func(ctx *aru.Ctx) error {
		for !ctx.Stopped() {
			frame++
			ctx.Compute(10 * time.Millisecond)
			if frame%25 == 0 {
				panic(fmt.Sprintf("frame grabber wedged at frame %d", frame))
			}
			if err := ctx.Put(ctx.Outs()[0], frame, nil, 1<<20); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	}, aru.WithRestartOnFailure(aru.RestartPolicy{
		Backoff:     aru.Backoff{Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond, Jitter: -1},
		MaxRestarts: 8,
		Seed:        42,
	}))
	dig.MustOutput(frames)

	trk := rt.MustAddThread("tracker", 0, func(ctx *aru.Ctx) error {
		for !ctx.Stopped() {
			m, err := ctx.Get(ctx.Ins()[0])
			if err != nil {
				return err
			}
			ctx.Compute(30 * time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], m.TS, nil, 64<<10); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	trk.MustInput(frames)
	trk.MustOutput(tracked)

	gui := rt.MustAddThread("gui", 0, func(ctx *aru.Ctx) error {
		for !ctx.Stopped() {
			if _, err := ctx.Get(ctx.Ins()[0]); err != nil {
				return err
			}
			displayed++
			ctx.Sync()
		}
		return nil
	})
	gui.MustInput(tracked)

	// On the discrete-event clock this goroutine sleeps as a registered
	// participant, from before Start until after Stop, so the threads
	// cannot run ahead of it; the wall clock has no registrar and needs
	// none.
	type registrar interface{ Add(int) }
	reg, hasReg := rt.Clock().(registrar)
	if hasReg {
		reg.Add(1)
	}
	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	if addr := rt.MetricsAddr(); addr != "" {
		fmt.Printf("observability: curl -s http://%s/metrics | grep aru_\n\n", addr)
	}

	// Sample health mid-run, while the supervisor is actively containing
	// panics and restarting the digitizer.
	rt.Clock().Sleep(3 * time.Second)
	fmt.Println("--- t=3s: panics contained, digitizer restarting on backoff ---")
	printHealth(rt.Health())

	// Keep running until the restart budget is exhausted: the digitizer
	// fails permanently, its death fades the STP feedback, and the
	// tracker/GUI observe ErrPeerFailed once the pipeline drains.
	rt.Clock().Sleep(12 * time.Second)
	rt.Stop()
	if hasReg {
		reg.Add(-1)
	}
	err := rt.Wait()

	fmt.Println()
	fmt.Println("--- t=15s: restart budget exhausted, pipeline wound down ---")
	printHealth(rt.Health())
	fmt.Println()
	fmt.Printf("frames displayed across all digitizer incarnations: %d\n", displayed)
	fmt.Println()
	fmt.Println("Wait() reports every permanent failure (joined):")
	fmt.Printf("  %v\n", err)
	fmt.Println()
	fmt.Println("full status (WriteStatus):")
	rt.WriteStatus(os.Stdout)
}

func printHealth(h aru.HealthSnapshot) {
	fmt.Printf("%-12s %-11s %9s %8s  %s\n", "thread", "state", "restarts", "stalled", "last failure")
	for _, th := range h.Threads {
		last := "-"
		if th.LastFailure != nil {
			last = th.LastFailure.Error()
		}
		fmt.Printf("%-12s %-11s %9d %8v  %s\n", th.Name, th.State, th.Restarts, th.Stalled, last)
	}
	fmt.Printf("healthy: %v\n", h.Healthy())
}
