package scenario

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/remote"
	rt "repro/internal/runtime"
	"repro/internal/trace"
)

// manualParams fills the Params fields the runner reads when a Spec is
// hand-built rather than generated.
func manualParams(topology string, d time.Duration) Params {
	return Params{
		Topology:   topology,
		Shape:      "steady",
		BasePeriod: 20 * time.Millisecond,
		CostMin:    2 * time.Millisecond,
		CostMax:    4 * time.Millisecond,
		Duration:   d,
	}
}

// wireSpec hand-builds source → remote("wire") → sink: the smallest
// scenario with a wire-backed edge. Generate never draws remote edges
// (they need a live server and a real clock); this is the composition
// surface for faultnet chaos.
func wireSpec(addr string, d time.Duration) *Spec {
	shape, _ := ShapeByName("steady")
	return &Spec{
		Params: manualParams("chain", d),
		Shape:  shape,
		Stages: []StageSpec{
			{Name: "source0", Kind: "source", Cost: 2 * time.Millisecond, ItemBytes: 512, Outputs: []int{0}, Window: 1},
			{Name: "sink1", Kind: "sink", Cost: 2 * time.Millisecond, Inputs: []int{0}, Window: 1},
		},
		Buffers: []BufferSpec{
			{Name: "wire", Index: 0, Backend: "remote", Addr: addr, Producers: []int{0}, Consumers: []int{1}},
		},
	}
}

// TestRemoteEdgeComposesFaultnetChaos runs a scenario whose middle
// edge is a real socket wrapped in a faultnet script: scripted wire
// delays plus a one-shot mid-stream write sever. The pipeline must
// ride out the fault through the reconnect/replay machinery and keep
// emitting — proving faultnet chaos composes onto any scenario with a
// remote-backed edge.
func TestRemoteEdgeComposesFaultnetChaos(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	ln, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := remote.NewServer(remote.ServerConfig{Listener: ln}, "wire")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctl.SetDelays(200*time.Microsecond, 200*time.Microsecond, 300*time.Microsecond)
	// Sever the producer's connection partway into the stream: the
	// budget covers the attach handshake and the first several puts,
	// so the drop lands mid-run and the endpoint must redial + replay.
	ctl.DropWriteAfter(4096)

	spec := wireSpec(srv.Addr(), 3*time.Second)
	cm, r, err := run(spec, RunConfig{Clock: clock.NewReal()})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if cm.Produced == 0 || cm.Emitted == 0 {
		t.Fatalf("pipeline did not flow under chaos: produced %d, emitted %d", cm.Produced, cm.Emitted)
	}
	if ctl.Injected() == 0 {
		t.Fatal("the fault script never bit: test proves nothing")
	}
	// Every acknowledged put must have landed exactly once: the server
	// holds at least the source's produced count (nothing acknowledged
	// was lost) and at most that many plus the one put, if any, that
	// Stop cut off mid round trip (a replay never duplicated). A cut
	// put returned ErrShutdown but may have been applied; the source
	// exits on it, so there is at most one.
	puts := srv.Channel("wire").Stats().Puts
	var cut int64
	if r.stages[0].cut.Load() {
		cut = 1
	}
	if int64(puts) < cm.Produced || int64(puts) > cm.Produced+cut {
		t.Fatalf("server applied %d puts, source produced %d (+%d cut by Stop): lost or duplicated inserts", puts, cm.Produced, cut)
	}
}

// TestRingAutoUpgradeFromGeneratedShape proves the generator's
// "ring-shaped" draws (power-of-two bounded queue, single consumer,
// window 1) actually auto-upgrade to the lock-free ring backend on the
// default virtual clock — the clock every pinned matrix cell runs on —
// and that the cell still moves items through it.
func TestRingAutoUpgradeFromGeneratedShape(t *testing.T) {
	shape, _ := ShapeByName("steady")
	spec := &Spec{
		Params: manualParams("chain", time.Second),
		Shape:  shape,
		Stages: []StageSpec{
			{Name: "source0", Kind: "source", Cost: 2 * time.Millisecond, ItemBytes: 256, Outputs: []int{0}, Window: 1},
			{Name: "sink1", Kind: "sink", Cost: 2 * time.Millisecond, Inputs: []int{0}, Window: 1},
		},
		Buffers: []BufferSpec{
			{Name: "buf0", Index: 0, Backend: "queue", Capacity: 8, Producers: []int{0}, Consumers: []int{1}},
		},
	}
	r, err := build(spec, rt.Options{
		Clock:    clock.NewVirtual(),
		Recorder: trace.NewRecorder(),
		ARU:      core.PolicyMin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	bs := r.rt.Snapshot().Buffers
	if len(bs) != 1 || bs[0].Backend != "ring" {
		t.Fatalf("snapshot buffers %+v: want buf0 auto-upgraded to ring on the virtual clock", bs)
	}
	if bs[0].Puts == 0 || bs[0].Frees == 0 {
		t.Fatalf("ring buf0 moved nothing: %d puts, %d frees", bs[0].Puts, bs[0].Frees)
	}
}
