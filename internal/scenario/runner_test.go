package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	rt "repro/internal/runtime"
)

// runCell generates and runs one cell, failing the test on any error.
func runCell(t *testing.T, p Params, cfg RunConfig) *CellMetrics {
	t.Helper()
	spec, err := Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cm, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cm
}

func TestRunChainSteady(t *testing.T) {
	cm := runCell(t, DefaultParams(1719, "chain", "steady"), RunConfig{})
	if cm.Produced == 0 {
		t.Fatal("source produced nothing")
	}
	if cm.Emitted == 0 {
		t.Fatal("sink emitted nothing")
	}
	if cm.Gets == 0 {
		t.Fatal("no consumptions recorded")
	}
	if cm.ThroughputFPS <= 0 {
		t.Fatalf("throughput %v must be positive", cm.ThroughputFPS)
	}
	if cm.MUMeanBytes <= 0 {
		t.Fatalf("MU mean %v must be positive", cm.MUMeanBytes)
	}
	if cm.DropRatio < 0 || cm.DropRatio > 1 {
		t.Fatalf("drop ratio %v out of [0,1]", cm.DropRatio)
	}
	if cm.Restarts != 0 {
		t.Fatalf("no failures injected but %d restarts", cm.Restarts)
	}
}

// TestRunMatrixSmoke drives every (topology, shape) cell briefly: each
// must start, flow items end to end, and stop cleanly.
func TestRunMatrixSmoke(t *testing.T) {
	for _, topo := range TopologyNames {
		for _, shape := range ShapeNames {
			p := DefaultParams(1719, topo, shape)
			p.Duration = 2 * time.Second
			cm := runCell(t, p, RunConfig{})
			if cm.Emitted == 0 {
				t.Fatalf("%s/%s: no outputs", topo, shape)
			}
		}
	}
}

func TestRunBoundedQueueMeasuresPutWaits(t *testing.T) {
	// Capacity-2 queues behind slow relays on a bursty fan-out: some
	// puts must park on a full queue.
	p := DefaultParams(3, "fanout", "onoff")
	p.QueueCapMin, p.QueueCapMax = 2, 2
	p.CostMin, p.CostMax = 12*time.Millisecond, 20*time.Millisecond
	cm := runCell(t, p, RunConfig{})
	if cm.PutWaits == 0 {
		t.Fatal("no put-wait samples collected")
	}
	if cm.PutWaitP99Ms <= 0 {
		t.Fatalf("put-wait p99 %v ms, want > 0: no put parked on a full queue", cm.PutWaitP99Ms)
	}
}

// TestPinnedCellParksOnRing runs a pinned-matrix cell exactly as
// cmd/scenarios does and asserts its lock-free rings are exercised on
// their blocking path: a consumer parked on an empty ring through the
// virtual clock at least once.
func TestPinnedCellParksOnRing(t *testing.T) {
	p := DefaultParams(1719, "diamond", "steady")
	p.Duration = 4 * time.Second
	spec, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	_, r, err := run(spec, RunConfig{Estimator: "raw", Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	rings, parked := 0, 0
	for _, b := range r.rt.Snapshot().Buffers {
		if b.Backend != "ring" {
			continue
		}
		rings++
		h := r.rt.Metrics().Histogram(rt.MetricGetBlocked, "", nil, metrics.Labels{"buffer": b.Name})
		if h.Count() > 0 || b.PutBlockedCount > 0 {
			parked++
		}
	}
	if rings == 0 {
		t.Fatal("cell materialized no ring")
	}
	if parked == 0 {
		t.Fatalf("none of %d rings saw a parked get or put", rings)
	}
}

func TestRunFailureInjection(t *testing.T) {
	p := DefaultParams(11, "chain", "steady")
	p.Failures = 2
	cm := runCell(t, p, RunConfig{})
	if cm.Restarts == 0 {
		t.Fatal("injected failures produced no supervised restarts")
	}
	if cm.Emitted == 0 {
		t.Fatal("pipeline never recovered after injected failures")
	}
}

// TestRunMetricsNeutral asserts the live metrics subsystem is
// behavior-neutral: a cell run with a live registry yields exactly the
// same outcome metrics as the same cell with metrics off. This is the
// deterministic stand-in for "metrics-subsystem overhead per cell":
// the overhead is pure instrument-update cost (pinned per-op in
// EXPERIMENTS.md), never a behavioral drift.
func TestRunMetricsNeutral(t *testing.T) {
	p := DefaultParams(1719, "diamond", "sine")
	p.Duration = 3 * time.Second
	off := runCell(t, p, RunConfig{})
	on := runCell(t, p, RunConfig{Metrics: true})
	if on.MetricsSeries <= 0 {
		t.Fatalf("metrics-on run reports %d series", on.MetricsSeries)
	}
	on.MetricsSeries = off.MetricsSeries // the only field allowed to differ
	a, _ := json.Marshal(off)
	b, _ := json.Marshal(on)
	if string(a) != string(b) {
		t.Fatalf("metrics changed the run outcome:\noff: %s\non:  %s", a, b)
	}
}

// TestRunAIMDNoWorseDropsSpotCheck is the in-package version of the
// matrix-wide differential cmd/scenarios enforces: under the bursty
// shape, the AIMD estimator must not drop more than raw propagation.
func TestRunAIMDNoWorseDropsSpotCheck(t *testing.T) {
	p := DefaultParams(1719, "chain", "onoff")
	raw := runCell(t, p, RunConfig{Estimator: "raw"})
	aimd := runCell(t, p, RunConfig{Estimator: "aimd"})
	if aimd.Drops > raw.Drops {
		t.Fatalf("AIMD dropped more than raw: %d > %d", aimd.Drops, raw.Drops)
	}
}

func TestRunRejectsUnknownEstimator(t *testing.T) {
	spec, err := Generate(DefaultParams(1, "chain", "steady"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, RunConfig{Estimator: "oracle"}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

// TestRegistrySeriesMatchesExposition pins registrySeries to what it
// stands for: the sample lines of the Prometheus text, over counters,
// gauges (one unknown), a help string with a newline and labelled
// histograms with the default and with custom buckets.
func TestRegistrySeriesMatchesExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	if n := registrySeries(reg); n != 0 {
		t.Fatalf("empty registry: %d series", n)
	}
	reg.Counter("c_total", "a counter\nover two lines", nil).Inc()
	reg.Counter("c_total", "", metrics.Labels{"stage": "a"}).Add(3)
	reg.DurationCounter("busy_seconds_total", "", metrics.Labels{"stage": `q"x`}).AddDuration(time.Second)
	reg.Gauge("g", "", metrics.Labels{"node": "n1"}).Set(2)
	reg.Gauge("g", "", metrics.Labels{"node": "n2"}).SetUnknown()
	reg.Histogram("wait_seconds", "", nil, metrics.Labels{"node": "a"}).Observe(time.Millisecond)
	reg.Histogram("wait_seconds", "", nil, metrics.Labels{"node": "b"})
	reg.Histogram("short_seconds", "", []time.Duration{time.Millisecond, time.Second}, metrics.Labels{"node": "a", "tenant": "t"})

	var buf strings.Builder
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines++
		}
	}
	want := 3 + 2 + 2*(len(metrics.DurationBuckets)+3) + (2 + 3)
	if got := registrySeries(reg); got != lines || got != want {
		t.Fatalf("registrySeries = %d, exposition has %d sample lines, want %d", got, lines, want)
	}
}
