package kiosk

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.InterestRate != 0.5 {
		t.Error("default interest rate")
	}
	if cfg.Timing != DefaultTiming() || cfg.Sizes != DefaultSizes() {
		t.Error("default timing/sizes")
	}
	if cfg.Collector == nil || cfg.Collector.Name() != "dgc" {
		t.Error("default collector")
	}
	bad := Config{InterestRate: 1.7}.withDefaults()
	if bad.InterestRate != 0.5 {
		t.Error("out-of-range interest rate must reset")
	}
}

func TestGraphStructure(t *testing.T) {
	app, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Runtime.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	threads, channels, queues := 0, 0, 0
	g.Nodes(func(n *graph.Node) {
		switch n.Kind {
		case graph.KindThread:
			threads++
		case graph.KindChannel:
			channels++
		case graph.KindQueue:
			queues++
		}
	})
	if threads != 5 || channels != 4 || queues != 1 {
		t.Fatalf("topology = %d threads, %d channels, %d queues", threads, channels, queues)
	}
	srcs := g.SourceThreads()
	if len(srcs) != 1 || g.Node(srcs[0]).Name != "digitizer" {
		t.Fatalf("sources = %v", srcs)
	}
}

// run executes for d, sampling the decision-queue occupancy just before
// shutdown (Stop drains queues, so occupancy must be read live).
func run(t *testing.T, cfg Config, d time.Duration) (*trace.Analysis, int) {
	t.Helper()
	app, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sleep on the virtual clock as a participant registered from before
	// Start until after Stop.
	reg, hasReg := app.Runtime.Clock().(clock.Registrar)
	if hasReg {
		reg.Add(1)
	}
	if err := app.Runtime.Start(); err != nil {
		t.Fatal(err)
	}
	app.Runtime.Clock().Sleep(d)
	qItems := app.Runtime.Buffer(app.DecisionQueue).Stats().Items
	app.Runtime.Stop()
	if hasReg {
		reg.Add(-1)
	}
	if err := app.Runtime.Wait(); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(app.Recorder, trace.AnalyzeOptions{From: d / 10, To: d})
	if err != nil {
		t.Fatal(err)
	}
	return a, qItems
}

// TestQueueGrowsWithoutARU: the Decision stage forwards interesting
// records faster than the high-fidelity tracker can absorb them; without
// feedback the decision queue grows without bound.
func TestQueueGrowsWithoutARU(t *testing.T) {
	_, qOff := run(t, Config{Seed: 42, Policy: core.PolicyOff()}, 60*time.Second)
	_, qMin := run(t, Config{Seed: 42, Policy: core.PolicyMin()}, 60*time.Second)

	// No ARU: ~10 records/s in, ~5.7/s out → dozens queued after 60 s.
	if qOff < 50 {
		t.Fatalf("unthrottled decision queue holds only %d records; expected unbounded growth", qOff)
	}
	// ARU: the demand signal crosses the queue; occupancy stays small.
	if qMin > 10 {
		t.Fatalf("ARU-min decision queue holds %d records; feedback through the queue failed", qMin)
	}
}

// TestARUBoundsFootprint: same story in bytes.
func TestARUBoundsFootprint(t *testing.T) {
	aOff, _ := run(t, Config{Seed: 42, Policy: core.PolicyOff()}, 60*time.Second)
	aMin, _ := run(t, Config{Seed: 42, Policy: core.PolicyMin()}, 60*time.Second)
	// Most bytes are frames; the unbounded queue holds tiny records, so
	// the byte-level gap is smaller than the tracker's — but still
	// decisive.
	if aMin.All.MeanBytes >= 0.7*aOff.All.MeanBytes {
		t.Fatalf("ARU-min footprint %.0f must be well under No-ARU %.0f",
			aMin.All.MeanBytes, aOff.All.MeanBytes)
	}
	if aMin.Outputs == 0 || aOff.Outputs == 0 {
		t.Fatal("no outputs")
	}
}

// TestDecisionAwareCompressor: the §3.3.2 user-defined operator recovers
// the throughput plain min sacrifices, while keeping the queue bounded.
func TestDecisionAwareCompressor(t *testing.T) {
	aPlain, _ := run(t, Config{Seed: 42, Policy: core.PolicyMin()}, 90*time.Second)
	aAware, qAware := run(t, Config{
		Seed: 42, Policy: core.PolicyMin(), DecisionAwareCompressor: true,
	}, 90*time.Second)

	// The rate-scaled operator lets the front run ~1/InterestRate faster,
	// so the GUI sees substantially more results.
	if float64(aAware.Outputs) < 1.4*float64(aPlain.Outputs) {
		t.Fatalf("decision-aware compressor outputs %d, plain min %d; expected ~2x",
			aAware.Outputs, aPlain.Outputs)
	}
	// Still bounded: the operator matches, not exceeds, the sink rate.
	if qAware > 25 {
		t.Fatalf("decision-aware compressor queue grew to %d", qAware)
	}
}

func TestRunHelperValidation(t *testing.T) {
	app, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(time.Second, 2*time.Second); err == nil {
		t.Fatal("warmup ≥ duration must fail")
	}
}
