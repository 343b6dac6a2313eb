package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
)

// fanoutGraph builds the Figure 3/4 topology: thread A puts into channels
// B–F; consumer threads b..f get from them. Returns the graph, A's id,
// the A→channel conns, and the channel→consumer conns keyed by channel.
func fanoutGraph(t *testing.T) (g *graph.Graph, a graph.NodeID, putConns map[string]graph.ConnID, getConns map[string]graph.ConnID) {
	t.Helper()
	g = graph.New()
	a = g.MustAddNode(graph.KindThread, "A", 0)
	putConns = map[string]graph.ConnID{}
	getConns = map[string]graph.ConnID{}
	for _, name := range []string{"B", "C", "D", "E", "F"} {
		ch := g.MustAddNode(graph.KindChannel, name, 0)
		cons := g.MustAddNode(graph.KindThread, name+"-consumer", 0)
		putConns[name] = g.MustConnect(a, ch)
		getConns[name] = g.MustConnect(ch, cons)
	}
	return g, a, putConns, getConns
}

// feedFanout drives the Figure 3/4 feedback: each consumer reports its
// current-STP, gets (pushing feedback to its channel), and then A puts to
// every channel (pulling feedback back).
func feedFanout(c *Controller, g *graph.Graph, putConns, getConns map[string]graph.ConnID, reports map[string]STP) {
	for name, stp := range reports {
		id, _ := g.Lookup(name + "-consumer")
		c.SetCurrentSTP(id, stp)
		c.NoteGet(getConns[name])
	}
	for _, conn := range putConns {
		c.NotePut(conn)
	}
}

var figureReports = map[string]STP{
	"B": stpMs(337), "C": stpMs(139), "D": stpMs(273), "E": stpMs(544), "F": stpMs(420),
}

// TestControllerFigure3MinPropagation pushes the paper's example values
// through a real controller: node A's summary under min must be 139ms.
func TestControllerFigure3MinPropagation(t *testing.T) {
	g, a, putConns, getConns := fanoutGraph(t)
	c := NewController(g, PolicyMin())
	feedFanout(c, g, putConns, getConns, figureReports)
	if got := c.State(a).Summary(); got != stpMs(139) {
		t.Fatalf("A summary under min = %v, want 139ms", got)
	}
}

// TestControllerFigure4MaxPropagation: same topology, max operator →
// 544ms.
func TestControllerFigure4MaxPropagation(t *testing.T) {
	g, a, putConns, getConns := fanoutGraph(t)
	c := NewController(g, PolicyMax())
	feedFanout(c, g, putConns, getConns, figureReports)
	if got := c.State(a).Summary(); got != stpMs(544) {
		t.Fatalf("A summary under max = %v, want 544ms", got)
	}
}

// TestControllerThreadInsertsOwnPeriod: "a thread with a larger period
// than its consumers inserts its execution period into the summary-STP".
func TestControllerThreadInsertsOwnPeriod(t *testing.T) {
	g, a, putConns, getConns := fanoutGraph(t)
	c := NewController(g, PolicyMin())
	feedFanout(c, g, putConns, getConns, figureReports)
	c.SetCurrentSTP(a, stpMs(250)) // slower than the 139ms compressed value
	if got := c.State(a).Summary(); got != stpMs(250) {
		t.Fatalf("summary = %v, want own 250ms period", got)
	}
	c.SetCurrentSTP(a, stpMs(50)) // faster than consumers again
	if got := c.State(a).Summary(); got != stpMs(139) {
		t.Fatalf("summary = %v, want 139ms", got)
	}
}

// TestControllerCascade verifies multi-stage backward propagation through
// src -> C1 -> mid -> C2 -> sink.
func TestControllerCascade(t *testing.T) {
	g := graph.New()
	src := g.MustAddNode(graph.KindThread, "src", 0)
	c1 := g.MustAddNode(graph.KindChannel, "C1", 0)
	mid := g.MustAddNode(graph.KindThread, "mid", 0)
	c2 := g.MustAddNode(graph.KindChannel, "C2", 0)
	sink := g.MustAddNode(graph.KindThread, "sink", 0)
	putSrc := g.MustConnect(src, c1)
	getMid := g.MustConnect(c1, mid)
	putMid := g.MustConnect(mid, c2)
	getSink := g.MustConnect(c2, sink)

	c := NewController(g, PolicyMin())
	// The sink is the bottleneck at 400ms.
	c.SetCurrentSTP(sink, stpMs(400))
	c.NoteGet(getSink) // sink → C2
	c.SetCurrentSTP(mid, stpMs(100))
	c.NotePut(putMid) // C2 → mid
	if got := c.State(mid).Summary(); got != stpMs(400) {
		t.Fatalf("mid summary = %v, want 400ms (sink dominates)", got)
	}
	c.NoteGet(getMid) // mid → C1
	c.NotePut(putSrc) // C1 → src
	c.SetCurrentSTP(src, stpMs(30))
	if got := c.TargetPeriod(src); got != stpMs(400) {
		t.Fatalf("src target = %v, want 400ms after cascade", got)
	}
}

func TestControllerDisabledIsInert(t *testing.T) {
	g, a, putConns, getConns := fanoutGraph(t)
	c := NewController(g, PolicyOff())
	feedFanout(c, g, putConns, getConns, figureReports)
	c.SetCurrentSTP(a, stpMs(500))
	if got := c.State(a).Summary(); got != Unknown {
		t.Fatalf("disabled controller summary = %v, want Unknown", got)
	}
	if got := c.TargetPeriod(a); got != Unknown {
		t.Fatalf("disabled TargetPeriod = %v", got)
	}
	if c.Enabled() {
		t.Error("PolicyOff must be disabled")
	}
}

func TestControllerPerNodeOverride(t *testing.T) {
	g, a, putConns, getConns := fanoutGraph(t)
	p := PolicyMin()
	p.PerNode = map[string]Compressor{"A": Max}
	c := NewController(g, p)
	feedFanout(c, g, putConns, getConns, figureReports)
	if got := c.State(a).Summary(); got != stpMs(544) {
		t.Fatalf("A with per-node max = %v, want 544ms", got)
	}
	// Channels keep the default min and just relay their single consumer.
	chB, _ := g.Lookup("B")
	if got := c.State(chB).Summary(); got != stpMs(337) {
		t.Fatalf("B summary = %v, want 337ms", got)
	}
}

func TestControllerWithEWMAFilter(t *testing.T) {
	g := graph.New()
	src := g.MustAddNode(graph.KindThread, "src", 0)
	ch := g.MustAddNode(graph.KindChannel, "ch", 0)
	cons := g.MustAddNode(graph.KindThread, "cons", 0)
	put := g.MustConnect(src, ch)
	get := g.MustConnect(ch, cons)

	p := PolicyMin()
	p.NewFilter = func() Filter { return NewEWMAFilter(0.5) }
	c := NewController(g, p)

	c.SetCurrentSTP(cons, stpMs(100))
	c.NoteGet(get)
	c.SetCurrentSTP(cons, stpMs(300)) // noisy spike
	c.NoteGet(get)
	c.NotePut(put)
	// Channel slot: EWMA(100, 300) = 200; src slot EWMA first sample
	// passes through: 200.
	if got := c.State(src).Summary(); got != stpMs(200) {
		t.Fatalf("filtered summary = %v, want 200ms", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if PolicyOff().Name() != "no-aru" {
		t.Error("PolicyOff name")
	}
	if PolicyMin().Name() != "aru-min" {
		t.Error("PolicyMin name")
	}
	if PolicyMax().Name() != "aru-max" {
		t.Error("PolicyMax name")
	}
	if (Policy{Enabled: true}).Name() != "aru-min" {
		t.Error("default compressor must read as min")
	}
}

func TestBackwardVecIgnoresForeignConn(t *testing.T) {
	v := NewBackwardVec([]graph.ConnID{1, 2}, nil)
	v.Update(99, stpMs(5)) // not a slot; must be ignored
	if got := v.Compressed(Min); got != Unknown {
		t.Fatalf("foreign conn leaked into vector: %v", got)
	}
	v.Update(1, stpMs(7))
	if got := v.Compressed(Min); got != stpMs(7) {
		t.Fatalf("Compressed = %v", got)
	}
	snap := v.Snapshot()
	if len(snap) != 2 || snap[0] != stpMs(7) || snap[1] != Unknown {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestBackwardVecConcurrent(t *testing.T) {
	conns := []graph.ConnID{0, 1, 2, 3}
	v := NewBackwardVec(conns, func() Filter { return NewEWMAFilter(0.9) })
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c graph.ConnID) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				v.Update(c, STP(time.Duration(i)*time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	if got := v.Compressed(Max); !got.Known() {
		t.Fatal("vector must hold data after concurrent updates")
	}
}

func TestMeterExcludesBlockingAndThrottle(t *testing.T) {
	clk := clock.NewManual()
	var m Meter
	m.BeginIteration(clk.Now())
	clk.Advance(50 * time.Millisecond) // compute
	m.AddBlocked(0)                    // non-positive ignored
	clk.Advance(30 * time.Millisecond) // blocked span
	m.AddBlocked(30 * time.Millisecond)
	clk.Advance(20 * time.Millisecond) // throttle span
	m.AddThrottled(20 * time.Millisecond)
	clk.Advance(10 * time.Millisecond) // more compute
	if got := m.Elapsed(clk.Now()); got != 110*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 110ms", got)
	}
	current, busy, blocked := m.EndIteration(clk.Now())
	if current != stpMs(60) {
		t.Fatalf("current-STP = %v, want 60ms", current)
	}
	if busy != 60*time.Millisecond {
		t.Fatalf("busy = %v, want 60ms", busy)
	}
	if blocked != 30*time.Millisecond {
		t.Fatalf("blocked = %v, want 30ms", blocked)
	}
}

func TestMeterWithoutBeginIsZero(t *testing.T) {
	var m Meter
	if got := m.Elapsed(time.Second); got != 0 {
		t.Fatalf("Elapsed without Begin = %v", got)
	}
	if cur, busy, blocked := m.EndIteration(time.Second); cur != Unknown || busy != 0 || blocked != 0 {
		t.Fatalf("EndIteration without Begin = %v/%v/%v", cur, busy, blocked)
	}
}

func TestMeterZeroBusyIsUnknown(t *testing.T) {
	var m Meter
	m.BeginIteration(0)
	m.AddBlocked(10 * time.Millisecond)
	cur, _, blocked := m.EndIteration(10 * time.Millisecond)
	if cur != Unknown {
		t.Fatalf("fully blocked iteration current-STP = %v, want Unknown", cur)
	}
	if blocked != 10*time.Millisecond {
		t.Fatalf("blocked = %v, want 10ms", blocked)
	}
}

func TestThrottlePace(t *testing.T) {
	clk := clock.NewManual()
	th := NewThrottle(clk)
	done := make(chan time.Duration, 1)
	go func() { done <- th.Pace(stpMs(100), 30*time.Millisecond) }()
	// The pace sleep is 70ms of manual time.
	deadline := time.Now().Add(2 * time.Second)
	for clk.Sleepers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Pace never slept")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(70 * time.Millisecond)
	if slept := <-done; slept != 70*time.Millisecond {
		t.Fatalf("slept = %v, want 70ms", slept)
	}
}

func TestThrottleNoSleepCases(t *testing.T) {
	th := NewThrottle(clock.NewManual()) // would hang if it ever slept
	if th.Pace(Unknown, 0) != 0 {
		t.Error("Unknown target must not sleep")
	}
	if th.Pace(stpMs(50), 80*time.Millisecond) != 0 {
		t.Error("already-slow iteration must not sleep")
	}
	if th.Pace(stpMs(50), 50*time.Millisecond) != 0 {
		t.Error("exactly-on-target iteration must not sleep")
	}
}
