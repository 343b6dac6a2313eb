package tracker

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/trace"
)

func TestPaperSizes(t *testing.T) {
	s := PaperSizes()
	if s.Frame != 738*1024 || s.Mask != 246*1024 || s.Histogram != 981*1024 || s.Location != 68 {
		t.Fatalf("sizes = %+v", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Hosts != 1 {
		t.Error("default hosts")
	}
	if cfg.Sizes != PaperSizes() {
		t.Error("default sizes")
	}
	if cfg.Timing != DefaultTiming() {
		t.Error("default timing")
	}
	if cfg.BusBytesPerSec != DefaultBusBytesPerSec {
		t.Error("default bus")
	}
	if cfg.PressureBytes != DefaultPressureBytes {
		t.Error("default pressure")
	}
	if cfg.Collector == nil || cfg.Collector.Name() != "dgc" {
		t.Error("default collector must be DGC")
	}
	neg := Config{PressureBytes: -1}.withDefaults()
	if neg.PressureBytes != 0 {
		t.Error("negative PressureBytes must disable the model")
	}
}

func TestHostPlan(t *testing.T) {
	hp1 := planHosts(1)
	if hp1 != (hostPlan{}) {
		t.Errorf("single host plan = %+v", hp1)
	}
	hp5 := planHosts(5)
	if hp5.digitizer != 0 || hp5.mask != 1 || hp5.histogram != 2 ||
		hp5.detect1 != 3 || hp5.detect2 != 3 || hp5.gui != 4 {
		t.Errorf("five host plan = %+v", hp5)
	}
	// Fewer hosts than stages must still place validly.
	hp3 := planHosts(3)
	for _, h := range []int{hp3.digitizer, hp3.mask, hp3.histogram, hp3.detect1, hp3.detect2, hp3.gui} {
		if h < 0 || h >= 3 {
			t.Errorf("host %d out of range", h)
		}
	}
}

func TestGraphStructure(t *testing.T) {
	app, err := New(Config{Hosts: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Runtime.Graph()
	threads, channels := 0, 0
	g.Nodes(func(n *graph.Node) {
		switch n.Kind {
		case graph.KindThread:
			threads++
		case graph.KindChannel:
			channels++
		}
	})
	if threads != 6 {
		t.Errorf("threads = %d, want 6 (five tasks, two detection threads)", threads)
	}
	if channels != 9 {
		t.Errorf("channels = %d, want 9 (Figure 5)", channels)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph must validate: %v", err)
	}
	srcs := g.SourceThreads()
	if len(srcs) != 1 || g.Node(srcs[0]).Name != "digitizer" {
		t.Errorf("sources = %v", srcs)
	}
	sinks := g.SinkThreads()
	if len(sinks) != 1 || g.Node(sinks[0]).Name != "gui" {
		t.Errorf("sinks = %v", sinks)
	}
	// The digitizer fans out to four frame channels.
	dig := g.Node(srcs[0])
	if len(dig.Out) != 4 {
		t.Errorf("digitizer outputs = %d, want 4", len(dig.Out))
	}
	// Channels are placed on their producer's host.
	g.Nodes(func(n *graph.Node) {
		if n.Kind != graph.KindChannel {
			return
		}
		prod := g.Node(g.Conn(n.In[0]).From)
		if n.Host != prod.Host {
			t.Errorf("channel %q on host %d but producer %q on %d", n.Name, n.Host, prod.Name, prod.Host)
		}
	})
}

func TestRunProducesOutputs(t *testing.T) {
	app, err := New(Config{Hosts: 1, Seed: 7, Policy: core.PolicyMin()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := app.Run(30*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outputs < 50 {
		t.Fatalf("outputs = %d over 25s, want a steady ~4 fps stream", a.Outputs)
	}
	if a.ThroughputFPS < 2 || a.ThroughputFPS > 8 {
		t.Errorf("throughput %.2f fps outside plausible range", a.ThroughputFPS)
	}
	if a.LatencyMean <= 0 || a.LatencyMean > 3*time.Second {
		t.Errorf("latency %v implausible", a.LatencyMean)
	}
	if a.All.MeanBytes <= 0 {
		t.Error("footprint must be positive")
	}
	if a.IGC.MeanBytes > a.All.MeanBytes {
		t.Error("IGC must lower-bound the real footprint")
	}
	if a.ItemsTotal == 0 || a.ItemsSuccessful == 0 {
		t.Error("items must flow")
	}
}

func TestRunWarmupValidation(t *testing.T) {
	app, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(time.Second, 2*time.Second); err == nil {
		t.Fatal("warmup ≥ duration must fail")
	}
}

func TestFiveHostRunUsesNetwork(t *testing.T) {
	app, err := New(Config{Hosts: 5, Seed: 3, Policy: core.PolicyOff()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(20*time.Second, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Frames travel digitizer(h0) → mask(h1): the link must show
	// traffic.
	if busy := app.Cluster.Network().LinkBusy(0, 1); busy == 0 {
		t.Error("h0→h1 link saw no traffic in the 5-host configuration")
	}
	if busy := app.Cluster.Network().LinkBusy(3, 4); busy == 0 {
		t.Error("detector→gui link saw no traffic")
	}
}

func TestCollectorOverride(t *testing.T) {
	app, err := New(Config{Seed: 1, Collector: gc.NewNone()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := app.Run(20*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Without GC, no frees happen before shutdown: footprint integrates
	// upward, so the mean must dwarf a DGC run's.
	appDGC, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := appDGC.Run(20*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.All.MeanBytes < 3*b.All.MeanBytes {
		t.Errorf("no-GC footprint %.0f must dwarf DGC footprint %.0f", a.All.MeanBytes, b.All.MeanBytes)
	}
}

// TestShapeFig6And7 asserts the Figure 6/7 orderings in configuration 1:
// footprint and waste fall monotonically from No-ARU to ARU-min to
// ARU-max, with IGC a lower bound.
func TestShapeFig6And7(t *testing.T) {
	run := func(p core.Policy) *trace.Analysis {
		app, err := New(Config{Hosts: 1, Seed: 42, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		a, err := app.Run(90*time.Second, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	noARU := run(core.PolicyOff())
	aruMin := run(core.PolicyMin())
	aruMax := run(core.PolicyMax())

	if !(noARU.All.MeanBytes > aruMin.All.MeanBytes && aruMin.All.MeanBytes > aruMax.All.MeanBytes) {
		t.Errorf("footprint ordering violated: %.0f / %.0f / %.0f",
			noARU.All.MeanBytes, aruMin.All.MeanBytes, aruMax.All.MeanBytes)
	}
	for name, a := range map[string]*trace.Analysis{"no-aru": noARU, "aru-min": aruMin, "aru-max": aruMax} {
		if a.IGC.MeanBytes > a.All.MeanBytes*1.001 {
			t.Errorf("%s: IGC %.0f above actual %.0f", name, a.IGC.MeanBytes, a.All.MeanBytes)
		}
	}
	if !(noARU.WastedMemPct > aruMin.WastedMemPct && aruMin.WastedMemPct > aruMax.WastedMemPct) {
		t.Errorf("wasted-memory ordering violated: %.1f / %.1f / %.1f",
			noARU.WastedMemPct, aruMin.WastedMemPct, aruMax.WastedMemPct)
	}
	if noARU.WastedMemPct < 40 {
		t.Errorf("No-ARU must waste most of its footprint (got %.1f%%)", noARU.WastedMemPct)
	}
	if aruMax.WastedMemPct > 10 {
		t.Errorf("ARU-max must nearly eliminate waste (got %.1f%%)", aruMax.WastedMemPct)
	}
	if !(noARU.WastedCompPct > aruMax.WastedCompPct) {
		t.Errorf("wasted-computation ordering violated: %.1f / %.1f",
			noARU.WastedCompPct, aruMax.WastedCompPct)
	}
}

// TestShapeFig10 asserts the Figure 10 performance orderings in
// configuration 1: ARU-min has the highest throughput, ARU-max the lowest
// latency, and No-ARU the highest latency.
func TestShapeFig10(t *testing.T) {
	run := func(p core.Policy) *trace.Analysis {
		app, err := New(Config{Hosts: 1, Seed: 42, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		a, err := app.Run(90*time.Second, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	noARU := run(core.PolicyOff())
	aruMin := run(core.PolicyMin())
	aruMax := run(core.PolicyMax())

	if !(aruMin.ThroughputFPS > noARU.ThroughputFPS) {
		t.Errorf("ARU-min fps %.2f must beat No-ARU %.2f", aruMin.ThroughputFPS, noARU.ThroughputFPS)
	}
	if !(aruMin.ThroughputFPS > aruMax.ThroughputFPS) {
		t.Errorf("ARU-min fps %.2f must beat ARU-max %.2f (max over-throttles)", aruMin.ThroughputFPS, aruMax.ThroughputFPS)
	}
	if !(noARU.LatencyMean > aruMin.LatencyMean && aruMin.LatencyMean > aruMax.LatencyMean) {
		t.Errorf("latency ordering violated: %v / %v / %v",
			noARU.LatencyMean, aruMin.LatencyMean, aruMax.LatencyMean)
	}
}

// TestRunRepeatsOnAnyCoreCount: a virtual-clock run is a function of its
// configuration and seed alone. ARU-min on one host, run four times at
// eight processors, must repeat the single-processor run exactly.
func TestRunRepeatsOnAnyCoreCount(t *testing.T) {
	fingerprint := func() string {
		app, err := New(Config{Hosts: 1, Seed: 42, Policy: core.PolicyMin()})
		if err != nil {
			t.Fatal(err)
		}
		a, err := app.Run(60*time.Second, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%d/%d/%v/%v/%v/%v/%v", a.ItemsTotal, a.ItemsWasted, a.Outputs, a.Skips,
			a.All.MeanBytes, a.WastedMemPct, a.LatencyP50, a.LatencyP95, a.Jitter)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := fingerprint()
	runtime.GOMAXPROCS(8)
	for i := 0; i < 4; i++ {
		if got := fingerprint(); got != want {
			t.Fatalf("run %d at GOMAXPROCS=8: %s, want the GOMAXPROCS=1 run's %s", i, got, want)
		}
	}
}
