package main

// The benchmark's declaration: which workloads exist, which metrics each
// run prints, and what every number means. BENCHMARK.json at the repo root
// repeats the names, units, directions and bounds; smoke_test.go fails when
// the two disagree.

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees; every workload reports all
// of them on an untraced run. Bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression, and
// the share by which two sets of runs of the same code may differ.
//
// One bound serves all six workloads and both of the box's moods. In a
// quiet quarter of an hour the inter-quartile spread over ten seeds stays
// under 4 % for rate and CPU and under 9 % for p95; then come minutes on end
// in which whole runs slow by up to a third, CPU time included, and the same
// spreads reach 20 %. No estimator sees through a slowdown longer than the
// run, so everything timed carries the widest bound the contract allows.
// The estimators are in harness.go.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_item", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
}

// perLayer lists the single-layer numbers of the traced pass, named
// <module>.<metric>. They carry no bound. The first block is derived from
// the traced workload itself (spans around the calls its thread bodies
// make, and counters read at the same boundaries); a span metric reads 0 on
// a workload whose bodies never make that call. The second block is the
// probe suite: direct calls into one layer's public functions on one
// goroutine, identical whatever the workload.
var perLayer = []metricDef{
	// Spans and counters of the traced workload.
	{Name: "runtime.put_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.get_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.get_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.putbatch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "runtime.getbatch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "runtime.build_start_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.stop_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_item", Unit: "count", Better: "lower"},
	{Name: "sink.items_per_s_mean", Unit: "1/s", Better: "higher"},
	{Name: "sink.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "sink.skipped_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.cpu_us_per_item_mean", Unit: "us", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "buffer.high_water_items", Unit: "count", Better: "lower"},
	{Name: "buffer.put_blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "remote.reattaches", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.disturbed_windows_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.spans", Unit: "count", Better: "higher"},

	// Probe suite.
	{Name: "buffer.pool_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.putget_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.putget_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.putget_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.skip_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "ring.batch64_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "core.fold_off_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fold_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.update_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.series", Unit: "count", Better: "lower"},
	{Name: "trace.append_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.analyze_ms_per_kevent", Unit: "ms", Better: "lower"},
	{Name: "trace.events_per_item", Unit: "count", Better: "lower"},
	{Name: "transport.transfer_ns", Unit: "ns", Better: "lower"},
	{Name: "clock.virtual_sleep_us_6", Unit: "us", Better: "lower"},
	{Name: "clock.virtual_sleep_us_1k", Unit: "us", Better: "lower"},
	{Name: "clock.scaled_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "clock.virtual_divergent_frac", Unit: "ratio", Better: "lower"},
	{Name: "graph.build_us_per_node", Unit: "us", Better: "lower"},
	{Name: "scenario.generate_us", Unit: "us", Better: "lower"},
	{Name: "scenario.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scenario.cell_ms_max", Unit: "ms", Better: "lower"},
	{Name: "sched.scale_ups", Unit: "count", Better: "lower"},
	{Name: "tracker.fps", Unit: "1/s", Better: "higher"},
	{Name: "tracker.footprint_mb", Unit: "MB", Better: "lower"},
	{Name: "tracker.wasted_mem_pct", Unit: "%", Better: "lower"},
	{Name: "tracker.wasted_comp_pct", Unit: "%", Better: "lower"},
	{Name: "tracker.jitter_us", Unit: "us", Better: "lower"},
	{Name: "tracker.skips_frac", Unit: "ratio", Better: "lower"},
	{Name: "tracker.run_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.put_rtt_us", Unit: "us", Better: "lower"},
	{Name: "remote.get_rtt_us", Unit: "us", Better: "lower"},
	{Name: "remote.put_rtt_us_64k", Unit: "us", Better: "lower"},
	{Name: "remote.wire_bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "remote.allocs_per_rtt", Unit: "count", Better: "lower"},
	{Name: "runtime.paced_items_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.items_per_s_p2", Unit: "1/s", Better: "higher"},
}

// workloadDef declares one workload. procs is the GOMAXPROCS it runs at:
// the in-process pipelines and the virtual clock repeat at 1 and do not at
// 2 (best-decile rate within 1 % against 20 %, and 2 is no faster), so only
// the workloads that need a second busy thread get one.
type workloadDef struct {
	Name  string
	Why   string
	procs int
	run   func(cfg runCfg, rep *report) error
}

var workloads = []workloadDef{
	{"tracker-virtual", "the paper's own experiment: the people tracker on the virtual clock, 1 and 5 hosts, ARU off/min/max; stresses clock, trace, gc, channel, transport", 1, runTrackerVirtual},
	{"scenario-matrix", "the 40 pinned cells CI waits on, rebuilt and checked byte for byte; touches graph, scenario, queue, estimator, sched, drain, supervisor a little each", 1, runScenarioMatrix},
	{"tracker-real", "the only production-posture run: open-loop camera, ARU-min pacing on the wall clock at x20; CPU-path changes should not move its rate", 2, runTrackerReal},
	{"relay-single", "single-item Put/Get/Sync through queue, ring and queue plus a get-latest channel tee, metrics on; the per-item path of all three in-process backends", 1, runRelaySingle},
	{"ring-batch", "PutBatch/GetBatch of 64 through the lock-free ring; the batch fast path, where single-item work predicts no change", 1, runRingBatch},
	{"wire-loopback", "one producer and one consumer through a remote channel on 127.0.0.1, mixed 68 B / 4 KiB / 64 KiB payloads; the gob codec and a round trip per item", 1, runWireLoopback},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
