// Integration test for the wire-backed buffer backend: a full runtime
// application whose only buffer is a server-hosted channel mounted
// through the "remote" backend registration. Exercised under -race in
// CI, this covers the unified Ctx.Put/Ctx.Get dispatch crossing a real
// TCP socket and the §3.3.2 feedback rules operating over the wire:
// the display's summary-STP travels with each get request, the server
// compresses it into the hosted channel's summary, each put reply
// carries that summary back, and the local controller throttles the
// camera with it.
package remote_test

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/runtime"
	"repro/internal/vt"
)

func TestRuntimeOverWireBackedEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock integration test")
	}
	srv, err := remote.NewServer(remote.ServerConfig{Addr: "127.0.0.1:0", Compressor: core.Min}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rt := runtime.New(runtime.Options{Clock: clock.NewReal(), ARU: core.PolicyMin()})
	ch, err := rt.AddRemoteChannel("frames", 0, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Caps().Remote {
		t.Fatalf("remote endpoint caps = %+v, want Remote", ch.Caps())
	}

	const displayPeriod = 15 * time.Millisecond
	camera := rt.MustAddThread("camera", 0, func(ctx *runtime.Ctx) error {
		out := ctx.Outs()[0]
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(2 * time.Millisecond) // natural period 2ms
			if err := ctx.Put(out, ts, []byte("frame"), 4<<10); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	display := rt.MustAddThread("display", 0, func(ctx *runtime.Ctx) error {
		in := ctx.Ins()[0]
		for {
			if _, err := ctx.Get(in); err != nil {
				return err
			}
			ctx.Compute(displayPeriod)
			ctx.Sync()
		}
	})
	camera.MustOutput(ch)
	display.MustInput(ch)

	if err := rt.RunFor(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Frames crossed the wire.
	puts := rt.Buffer(ch).Stats().Puts
	if puts == 0 {
		t.Fatal("no puts reached the wire-backed endpoint")
	}

	// The camera's target period converged toward the display's
	// sustainable period — feedback that can only have arrived over TCP.
	target := rt.Controller().TargetPeriod(camera.ID())
	if !target.Known() {
		t.Fatal("camera target period still unknown: no summary-STP crossed the wire")
	}
	if target.Duration() < displayPeriod/2 {
		t.Fatalf("camera target period %v, want ≥ %v (throttled by remote feedback)",
			target.Duration(), displayPeriod/2)
	}
}
