package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
)

// idleBody parks until Stop, never Syncing: the thread's heartbeat stays
// at its start stamp.
func idleBody(ctx *Ctx) error {
	<-ctx.Done()
	return nil
}

// connect wires src → C → sink, with an idle sink.
func connect(rt *Runtime, src *Thread, sinkOpts ...ThreadOption) {
	ch := rt.MustAddChannel("C", 0)
	src.MustOutput(ch)
	rt.MustAddThread("sink", 0, idleBody, sinkOpts...).MustInput(ch)
}

// TestControlLoopDutyOrder pins the control loop's schedule on a manual
// clock: the watchdog sweeps every 25ms (a quarter of the 100ms TTL)
// and one duty runs every 50ms, both on one participant. The idle
// source's own 175ms TTL is first exceeded at the 200ms sweep, where
// both are due: the watchdog's stall report must come first and the
// duty second. The duty runs exactly once per period.
func TestControlLoopDutyOrder(t *testing.T) {
	clk := clock.NewManual()
	var mu sync.Mutex
	var log []string
	note := func(s string) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%s@%v", s, clk.Now()))
		mu.Unlock()
	}
	builds := 0
	rt := New(Options{
		Clock:    clk,
		StallTTL: 100 * time.Millisecond,
		OnStall:  func(string, time.Duration) { note("stall") },
		ControlLoops: []ControlLoop{func(*Runtime) (time.Duration, func()) {
			builds++
			return 50 * time.Millisecond, func() { note("duty") }
		}},
	})
	connect(rt, rt.MustAddThread("idle", 0, idleBody, WithStallTTL(175*time.Millisecond)), WithStallTTL(time.Hour))
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		waitManualSleepers(t, clk, 1) // one participant for both duties
		clk.Advance(25 * time.Millisecond)
	}
	waitManualSleepers(t, clk, 1)
	rt.Stop()
	clk.Advance(25 * time.Millisecond)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	want := []string{"duty@50ms", "duty@100ms", "duty@150ms", "stall@200ms", "duty@200ms", "duty@250ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("control loop log %v, want %v", log, want)
	}
	if builds != 1 {
		t.Fatalf("ControlLoop built %d times, want once", builds)
	}
}

// TestControlLoopStopPrompt: Stop interrupts the control loop's sleep
// and a thread's restart backoff on a real clock and on a scaled clock
// over a real base, so Stop+Wait returns at once even with a one-hour
// duty period or a ten-second backoff pending.
func TestControlLoopStopPrompt(t *testing.T) {
	hourly := func(*Runtime) (time.Duration, func()) { return time.Hour, func() {} }
	for _, tc := range []struct {
		name    string
		clk     clock.Clock
		backoff bool
	}{
		{"real", clock.NewReal(), false},
		{"scaled", clock.NewScaled(clock.NewReal(), 20), false},
		{"scaled-restart-backoff", clock.NewScaled(clock.NewReal(), 20), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Options{Clock: tc.clk, ControlLoops: []ControlLoop{hourly}})
			body, opts := idleBody, []ThreadOption(nil)
			if tc.backoff {
				body = func(*Ctx) error { return errors.New("injected") }
				opts = append(opts, WithRestartOnFailure(RestartPolicy{
					Backoff: backoff.Backoff{Base: 10 * time.Second, Cap: 10 * time.Second, Jitter: -1},
				}))
			}
			src := rt.MustAddThread("src", 0, body, opts...)
			connect(rt, src)
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			if tc.backoff {
				waitState(t, src, StateRestarting)
			}
			start := time.Now()
			waited := make(chan error, 1)
			go func() {
				rt.Stop()
				waited <- rt.Wait()
			}()
			select {
			case err := <-waited:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Stop+Wait still blocked after 5s")
			}
			if d := time.Since(start); d >= 100*time.Millisecond {
				t.Fatalf("Stop+Wait took %v, want under 100ms", d)
			}
		})
	}
}
