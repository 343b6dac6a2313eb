// Distributed demonstrates the runtime spanning real TCP sockets: a
// channel server hosts a "frames" channel; producers and consumers
// attach over the wire. Summary-STP feedback is piggybacked on the
// protocol exactly as the paper piggybacks it on put/get: the consumers'
// gets deliver their sustainable periods to the channel, and each put's
// reply carries the channel's compressed summary back — the producer
// throttles itself accordingly.
//
// Two attachment styles are shown. The raw roles (producer/consumer)
// speak the wire protocol directly. The pipeline role instead mounts
// the hosted channel into an ordinary runtime via the registered
// "remote" buffer backend (Runtime.AddRemoteChannel): its camera and
// display threads use the same Ctx.Put/Ctx.Get calls as any local
// application, and Ctx.Sync throttles the camera from summary-STPs
// that crossed the wire.
//
//	go run ./examples/distributed                 # all roles in-process
//	go run ./examples/distributed -listen :7777   # server only
//	go run ./examples/distributed -connect HOST:7777 -role producer
//	go run ./examples/distributed -connect HOST:7777 -role consumer -period 150ms
//	go run ./examples/distributed -connect HOST:7777 -role pipeline -period 90ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	aru "repro"
)

// tuning collects the fault-tolerance knobs every role shares: wire
// deadlines, redial backoff, the retry budget behind ErrDegraded, and
// the staleness TTL past which a silent peer's summary-STP decays back
// toward local pacing.
var tuning aru.RemoteTuning

// metricsAddr optionally serves the pipeline role's observability
// endpoint (/metrics, /metrics.json, /status, /health).
var metricsAddr string

func main() {
	var (
		listen  = flag.String("listen", "", "run only a channel server on this address")
		connect = flag.String("connect", "", "attach to a server at this address instead of starting one")
		role    = flag.String("role", "", "with -connect: producer or consumer")
		period  = flag.Duration("period", 120*time.Millisecond, "consumer processing period")
		frames  = flag.Int("frames", 60, "frames to produce")
	)
	flag.DurationVar(&tuning.CallTimeout, "call-timeout", 0, "per-call wire deadline (0: default 5s)")
	flag.DurationVar(&tuning.RetryBase, "retry-base", 0, "first redial backoff delay (0: default 50ms)")
	flag.DurationVar(&tuning.RetryCap, "retry-cap", 0, "redial backoff cap (0: default 2s)")
	flag.IntVar(&tuning.MaxRetries, "max-retries", 0, "redial/retry budget before ErrDegraded (0: default 3)")
	flag.DurationVar(&tuning.StaleTTL, "stale-ttl", 0, "remote summary-STP trust window (0: default 10s; <0: never decay)")
	flag.StringVar(&metricsAddr, "metrics", "", "pipeline role: serve /metrics, /metrics.json, /status, /health on this address (e.g. :8080)")
	flag.Parse()

	switch {
	case *listen != "":
		srv, err := aru.NewRemoteServer(aru.RemoteServerConfig{Addr: *listen}, "frames")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("channel server hosting %q on %s (ctrl-c to stop)\n", "frames", srv.Addr())
		select {}

	case *connect != "":
		switch *role {
		case "producer":
			if err := produce(*connect, *frames); err != nil {
				log.Fatal(err)
			}
		case "consumer":
			if err := consume(*connect, *period, "remote-consumer"); err != nil && !errors.Is(err, aru.ErrShutdown) {
				log.Fatal(err)
			}
		case "pipeline":
			if err := pipeline(*connect, *frames, *period); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatal("with -connect, pass -role producer, consumer, or pipeline")
		}

	default:
		// Demo mode: everything in one process over localhost.
		srv, err := aru.NewRemoteServer(aru.RemoteServerConfig{Addr: "127.0.0.1:0"}, "frames")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("channel server on %s\n\n", srv.Addr())

		var wg sync.WaitGroup
		for _, c := range []struct {
			name   string
			period time.Duration
		}{
			{"fast-consumer", 60 * time.Millisecond},
			{"slow-consumer", 180 * time.Millisecond},
		} {
			wg.Add(1)
			go func(name string, p time.Duration) {
				defer wg.Done()
				if err := consume(srv.Addr(), p, name); err != nil && !errors.Is(err, aru.ErrShutdown) {
					log.Printf("%s: %v", name, err)
				}
			}(c.name, c.period)
		}

		if err := pipeline(srv.Addr(), *frames, 60*time.Millisecond); err != nil {
			log.Fatal(err)
		}
		srv.Close() // releases the blocked consumers
		wg.Wait()
		fmt.Println("\nThe camera started at its natural 20ms period and converged to the")
		fmt.Println("fastest consumer's ~60ms period — ARU's min rule, over real sockets.")
	}
}

// pipeline runs an ordinary runtime application — camera → frames →
// display — whose "frames" buffer is the server-hosted channel, mounted
// through the registered "remote" buffer backend. The threads never see
// the wire: the camera's Ctx.Put and the display's Ctx.Get are the same
// unified calls every local backend serves, and Ctx.Sync throttles the
// camera to the summary-STP each put's reply carried back over TCP.
func pipeline(addr string, frames int, displayPeriod time.Duration) error {
	opts := aru.Options{Clock: aru.NewRealClock(), ARU: aru.PolicyMin()}
	if metricsAddr != "" {
		// Wire-level instruments (RTT, redials, timeouts, reattaches)
		// register against the same registry the runtime publishes to, so
		// one scrape covers the whole pipeline including its remote edge.
		opts = aru.WithMetricsAddr(opts, metricsAddr)
	}
	rt := aru.New(opts)
	ch, err := rt.AddRemoteChannel("frames", 0, addr, aru.WithRemoteTuning(tuning))
	if err != nil {
		return err
	}

	camera := rt.MustAddThread("camera", 0, func(ctx *aru.Ctx) error {
		for ts := aru.Timestamp(1); ts <= aru.Timestamp(frames) && !ctx.Stopped(); ts++ {
			ctx.Compute(20 * time.Millisecond) // natural 20ms period
			err := ctx.Put(ctx.Outs()[0], ts, []byte("frame-payload"), 64<<10)
			switch {
			case err == nil:
			case errors.Is(err, aru.ErrReattached):
				// The put succeeded after a transparent redial.
				fmt.Println("pipeline: camera re-attached across a wire fault")
			case errors.Is(err, aru.ErrDegraded):
				// Retry budget spent against an unreachable server: skip
				// this frame; the staleness decay meanwhile returns the
				// camera to its local 20ms pacing.
				fmt.Println("pipeline: camera put degraded (server unreachable); dropping frame")
			default:
				return err
			}
			ctx.Sync() // pace to the feedback that crossed the wire
		}
		return nil
	})
	display := rt.MustAddThread("display", 0, func(ctx *aru.Ctx) error {
		for !ctx.Stopped() {
			if _, err := ctx.Get(ctx.Ins()[0]); err != nil {
				if errors.Is(err, aru.ErrDegraded) {
					continue // server unreachable; keep trying
				}
				if !errors.Is(err, aru.ErrReattached) {
					return err
				}
				// Re-attached mid-get: the item is valid, fall through.
			}
			ctx.Compute(displayPeriod)
			ctx.Sync()
		}
		return nil
	})
	camera.MustOutput(ch)
	display.MustInput(ch)

	if err := rt.Start(); err != nil {
		return err
	}
	if a := rt.MetricsAddr(); a != "" {
		fmt.Printf("pipeline: observability on http://%s/metrics\n", a)
	}

	// Report the camera's target period as the wire feedback moves it,
	// and the hosted channel's degraded/healthy transitions as its
	// summary-STP ages past the staleness TTL (or heals).
	done := make(chan struct{})
	go func() {
		defer close(done)
		var reported aru.STP
		var degraded bool
		for !rt.Stopped() {
			if p := rt.Controller().TargetPeriod(camera.ID()); p != reported && p.Known() {
				fmt.Printf("pipeline: camera target period is now %v\n", p.Duration())
				reported = p
			}
			if d := rt.Controller().Degraded(ch.ID()); d != degraded {
				if d {
					fmt.Println("pipeline: remote feedback is STALE — decaying toward local pacing")
				} else {
					fmt.Println("pipeline: remote feedback is fresh again")
				}
				degraded = d
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	// The camera body returns after the last frame; poll its put count so
	// the display (blocked in a wire get) can be shut down promptly.
	deadline := time.Now().Add(2 * time.Minute)
	for cameraPuts(rt, ch) < int64(frames) && !rt.Stopped() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	rt.Stop()
	<-done
	if err := rt.Wait(); err != nil && !errors.Is(err, aru.ErrShutdown) {
		return err
	}
	fmt.Printf("pipeline: camera produced %d frames through the wire-backed endpoint\n", frames)
	return nil
}

// cameraPuts reads the endpoint's local put count.
func cameraPuts(rt *aru.Runtime, ch *aru.ChannelRef) int64 {
	if b := rt.Buffer(ch); b != nil {
		return b.Stats().Puts
	}
	return 0
}

// dialCfg translates the shared tuning flags into a raw connection's
// fault-tolerance configuration.
func dialCfg(addr string) aru.RemoteDialConfig {
	return aru.RemoteDialConfig{
		Addr:        addr,
		Channel:     "frames",
		CallTimeout: tuning.CallTimeout,
		GetTimeout:  tuning.GetTimeout,
		Backoff: aru.RemoteBackoff{
			Base:   tuning.RetryBase,
			Cap:    tuning.RetryCap,
			Factor: tuning.RetryFactor,
			Jitter: tuning.RetryJitter,
		},
		MaxRetries: tuning.MaxRetries,
	}
}

// produce pushes frames, pacing itself to the summary-STP piggybacked on
// each put's reply (the ARU feedback loop, client side).
func produce(addr string, frames int) error {
	prod, err := aru.DialRemoteProducerConfig(dialCfg(addr))
	if err != nil {
		return err
	}
	defer prod.Close()

	const natural = 20 * time.Millisecond
	var reported aru.STP
	for ts := aru.Timestamp(1); ts <= aru.Timestamp(frames); ts++ {
		start := time.Now()
		summary, err := prod.Put(ts, []byte("frame-payload"), 64<<10)
		switch {
		case err == nil:
		case errors.Is(err, aru.ErrReattached):
			fmt.Println("producer: re-attached across a wire fault (put applied once)")
		case errors.Is(err, aru.ErrDegraded):
			fmt.Printf("producer: degraded at frame %d (server unreachable); dropping frame\n", ts)
			continue
		default:
			return err
		}
		if summary != reported {
			fmt.Printf("producer: channel summary-STP is now %v\n", summary)
			reported = summary
		}
		// Pace to max(natural period, downstream feedback).
		target := natural
		if summary.Known() && summary.Duration() > target {
			target = summary.Duration()
		}
		if spent := time.Since(start); spent < target {
			time.Sleep(target - spent)
		}
	}
	fmt.Printf("producer: done after %d frames\n", frames)
	return nil
}

// consume drains the freshest frames at a fixed processing period,
// reporting that period as its summary-STP with every get.
func consume(addr string, period time.Duration, name string) error {
	cons, err := aru.DialRemoteConsumerConfig(dialCfg(addr))
	if err != nil {
		return err
	}
	defer cons.Close()

	got, skipped := 0, 0
	for {
		item, err := cons.GetLatest(aru.STP(period))
		if err != nil && errors.Is(err, aru.ErrReattached) {
			fmt.Printf("%-14s re-attached across a wire fault\n", name)
			err = nil // the item is valid
		}
		if err != nil {
			fmt.Printf("%-14s consumed %3d frames, skipped %3d (server closed)\n", name, got, skipped)
			return aru.ErrShutdown
		}
		got++
		skipped += len(item.SkippedTS)
		time.Sleep(period) // processing
	}
}
