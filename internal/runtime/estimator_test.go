package runtime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vt"
)

// estimatorChain builds src -> C1 -> sink on the virtual clock with the
// AIMD estimator plugged into the ARU policy. The sink's compute period
// is the bottleneck the estimator must converge on; the source computes
// much faster and is paced purely by feedback.
func estimatorChain(t *testing.T, reg *metrics.Registry, sinkPeriod time.Duration) *Runtime {
	t.Helper()
	cfg := core.DefaultAIMDConfig()
	rt := New(Options{
		Clock:   fastClock(),
		ARU:     core.PolicyMin().WithEstimator(core.AIMDFactory(cfg)),
		Metrics: reg,
	})
	c1 := rt.MustAddChannel("C1", 0)
	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		var ts vt.Timestamp
		out := outPortOf(t, rt, "src", "C1")
		for !ctx.Stopped() {
			ts++
			ctx.Compute(2 * time.Millisecond)
			if err := ctx.Put(out, ts, nil, 100); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		in := inPortOf(t, rt, "sink", "C1")
		for {
			if _, err := ctx.GetLatest(in); err != nil {
				return err
			}
			ctx.Compute(sinkPeriod)
			ctx.Emit()
			ctx.Sync()
		}
	})
	src.MustOutput(c1)
	sink.MustInput(c1)
	return rt
}

// nodeStatusOf finds a node's status in a snapshot by name.
func nodeStatusOf(t *testing.T, snap Snapshot, name string) NodeStatus {
	t.Helper()
	for _, ns := range snap.Nodes {
		if ns.Name == name {
			return ns
		}
	}
	t.Fatalf("no node %q in snapshot", name)
	return NodeStatus{}
}

// TestRuntimeEstimatorEndToEnd runs a real pipeline with the AIMD
// estimator enabled and checks the full integration surface: the
// source's thread node exposes live estimator state through Snapshot,
// the damped target tracks the sink bottleneck, buffer nodes never grow
// estimators, and WriteStatus renders the estimator suffix.
func TestRuntimeEstimatorEndToEnd(t *testing.T) {
	const bottleneck = 50 * time.Millisecond
	rt := estimatorChain(t, nil, bottleneck)
	if err := rt.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	snap := rt.Snapshot()
	src := nodeStatusOf(t, snap, "src")
	if src.Estimator == nil {
		t.Fatal("src thread node has no estimator state with the factory set")
	}
	if src.Estimator.Name != "aimd" {
		t.Errorf("estimator name = %q, want aimd", src.Estimator.Name)
	}
	if !src.Estimator.Target.Known() || !src.Estimator.Estimate.Known() {
		t.Fatalf("estimator never initialized: target=%v estimate=%v",
			src.Estimator.Target, src.Estimator.Estimate)
	}
	// The damped target must have converged near the sink's period: at
	// least the bottleneck minus the AIMD band, and not runaway-slow.
	if got := src.Estimator.Target.Duration(); got < 40*time.Millisecond || got > 2*bottleneck {
		t.Errorf("converged target = %v, want near the %v bottleneck", got, bottleneck)
	}
	if src.Estimator.FeedbackInterval <= 0 {
		t.Errorf("feedback interval = %v, want > 0 after live feedback", src.Estimator.FeedbackInterval)
	}

	// Buffer nodes carry raw folds only — the estimator stage exists on
	// thread nodes alone, which is what keeps the propagated vector (and
	// the paper figures) byte-identical when the estimator is off.
	if c1 := nodeStatusOf(t, snap, "C1"); c1.Estimator != nil {
		t.Errorf("buffer node C1 grew an estimator: %+v", *c1.Estimator)
	}

	var sb strings.Builder
	rt.WriteStatus(&sb)
	out := sb.String()
	if !strings.Contains(out, "aimd[target=") {
		t.Errorf("WriteStatus lacks the estimator suffix:\n%s", out)
	}
}

// TestRuntimeEstimatorMetricsPublish drives the same pipeline with a
// registry attached and checks the estimator instrument family: the
// target/estimate gauges agree exactly with the snapshot that published
// them, the trend/phase gauges carry the enum values, and the Swap-diff
// counter publication sums to the controller's lifetime totals.
func TestRuntimeEstimatorMetricsPublish(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := estimatorChain(t, reg, 50*time.Millisecond)
	if err := rt.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	snap := rt.Snapshot() // publishes to the registry
	es := nodeStatusOf(t, snap, "src").Estimator
	if es == nil {
		t.Fatal("src has no estimator state")
	}
	ls := metrics.Labels{"node": "src"}
	if got := reg.DurationGauge(MetricNodeTarget, "", ls).Value(); got != int64(es.Target) {
		t.Errorf("target gauge = %d, snapshot says %d", got, int64(es.Target))
	}
	if got := reg.DurationGauge(MetricNodeEstimate, "", ls).Value(); got != int64(es.Estimate) {
		t.Errorf("estimate gauge = %d, snapshot says %d", got, int64(es.Estimate))
	}
	if got := reg.Gauge(MetricNodeTrend, "", ls).Value(); got != int64(es.Trend) {
		t.Errorf("trend gauge = %d, snapshot says %d", got, es.Trend)
	}
	if got := reg.Gauge(MetricNodePhase, "", ls).Value(); got != int64(es.Phase) {
		t.Errorf("phase gauge = %d, snapshot says %d", got, es.Phase)
	}
	if got := reg.DurationGauge(MetricNodeFeedbackItv, "", ls).Value(); got != int64(es.FeedbackInterval) {
		t.Errorf("feedback interval gauge = %d, snapshot says %d", got, int64(es.FeedbackInterval))
	}
	// The counters are published as diffs of the lifetime totals; after
	// any number of publishes they must sum back to exactly those totals.
	if got := reg.Counter(MetricNodeBackoffs, "", ls).Value(); got != int64(es.Backoffs) {
		t.Errorf("backoffs counter = %d, lifetime total %d", got, es.Backoffs)
	}
	if got := reg.Counter(MetricNodeSpeedups, "", ls).Value(); got != int64(es.Speedups) {
		t.Errorf("speedups counter = %d, lifetime total %d", got, es.Speedups)
	}

	// Estimator instruments exist only for thread nodes: the Prometheus
	// text must have a src series and no C1 series in the target family.
	var pb strings.Builder
	reg.WriteProm(&pb)
	prom := pb.String()
	if !strings.Contains(prom, MetricNodeTarget+`{node="src"}`) {
		t.Errorf("prom output lacks the src target series:\n%s", prom)
	}
	if strings.Contains(prom, MetricNodeTarget+`{node="C1"}`) {
		t.Errorf("buffer node C1 has a target series:\n%s", prom)
	}
}

// TestTenantLabelsExposition pins the multi-tenant label contract:
// entities tagged with WithTenant / WithThreadTenant carry a `tenant`
// label on every buffer-, thread-, and node-level instrument, while
// untagged entities keep their exact historical label sets (no empty
// tenant="" dimension).
func TestTenantLabelsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := New(Options{
		Clock:   fastClock(),
		ARU:     core.PolicyMin(),
		Metrics: reg,
	})
	tagged := rt.MustAddChannel("C-acme", 0, WithTenant("acme"))
	plain := rt.MustAddChannel("C-plain", 0)
	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		var ts vt.Timestamp
		for !ctx.Stopped() {
			ts++
			ctx.Compute(time.Millisecond)
			for _, out := range ctx.Outs() {
				if err := ctx.Put(out, ts, nil, 10); err != nil {
					return err
				}
			}
			ctx.Sync()
		}
		return nil
	}, WithThreadTenant("acme"))
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		for {
			for _, in := range ctx.Ins() {
				if _, err := ctx.GetLatest(in); err != nil {
					return err
				}
			}
			ctx.Compute(2 * time.Millisecond)
			ctx.Sync()
		}
	})
	src.MustOutput(tagged)
	src.MustOutput(plain)
	sink.MustInput(tagged)
	sink.MustInput(plain)

	if rt.Buffer(tagged) != nil {
		t.Fatal("buffer materialized before Start")
	}
	if got := tagged.Tenant(); got != "acme" {
		t.Fatalf("BufferRef.Tenant() = %q, want acme", got)
	}
	if err := rt.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rt.Snapshot()

	var sb strings.Builder
	reg.WriteProm(&sb)
	prom := sb.String()

	// Tagged entities: the tenant dimension rides on buffer-layer
	// counters, runtime buffer gauges, thread instruments, and the
	// thread's node-level STP gauges alike.
	for _, want := range []string{
		buffer.MetricPuts + `{buffer="C-acme",tenant="acme"}`,
		MetricBufferItems + `{buffer="C-acme",tenant="acme"}`,
		MetricGets + `{buffer="C-acme",tenant="acme"}`,
		MetricIterations + `{tenant="acme",thread="src"}`,
		MetricNodeCurrent + `{node="src",tenant="acme"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output lacks tagged series %q", want)
		}
	}
	// Untagged entities: byte-identical historical label sets.
	for _, want := range []string{
		buffer.MetricPuts + `{buffer="C-plain"}`,
		MetricBufferItems + `{buffer="C-plain"}`,
		MetricIterations + `{thread="sink"}`,
		MetricNodeCurrent + `{node="sink"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output lacks untagged series %q", want)
		}
	}
	for _, bad := range []string{`tenant=""`, `{buffer="C-plain",tenant=`} {
		if strings.Contains(prom, bad) {
			t.Errorf("prom output grew a spurious tenant label %q:\n%s", bad, prom)
		}
	}
}
