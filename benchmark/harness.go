package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	rt "repro/internal/runtime"
	"repro/internal/stats"
)

// runCfg is one run's input.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	// toy shrinks warm-ups, probe counts and batch jobs so the smoke test
	// covers every code path in seconds. Toy numbers mean nothing.
	toy bool
	// root is the repository root: BENCH_scenarios.json is read from it and
	// span files are written under root/benchmark/out.
	root string
}

// pick returns full at benchmark size and toy at smoke-test size.
func (c runCfg) pick(full, toy int) int {
	if c.toy {
		return toy
	}
	return full
}

// report collects one run's outcome. Checkers call fail; workloads call set
// once per metric they own.
type report struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	spans             *spanLog
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		r.failf("metric %s reported twice", name)
	}
	r.values[name] = v
}

// failf records a failed output check; the run then reports correct=false
// and exits non-zero.
func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// --- process counters -----------------------------------------------------

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memNow reads the allocator counters. It stops the world, so the harness
// calls it at the edges of an interval only, never inside one.
func memNow() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

// liveHeapMB is the heap still reachable after two forced collections (one
// leaves what sync.Pool held in its victim cache, about 4 MB after a
// tracker run). The caller keeps whatever it wants counted referenced across
// the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// --- order statistics -----------------------------------------------------

// quantile interpolates linearly between order statistics; q in [0,1]. An
// empty sample reads 0: a span metric of a call the workload never makes.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// --- windowed measurement -------------------------------------------------

// A rate window is short so that, when the box's interference comes in
// bursts, a tenth of the windows still fall between them; a latency window
// is long enough to hold the few hundred samples a 95th percentile needs.
const (
	windowEvery   = 25 * time.Millisecond
	latencyWindow = 250 * time.Millisecond
)

// edge is the harness's reading at one window boundary.
type edge struct {
	at    time.Time
	cpu   time.Duration
	items int64
}

func readEdge(count func() int64) edge {
	return edge{at: time.Now(), cpu: cpuNow(), items: count()}
}

// measureWindows samples count at window boundaries, every apart, for the
// given time. The harness goroutine sleeps between edges, so at
// GOMAXPROCS=1 it takes the processor only at an edge.
func measureWindows(seconds float64, every time.Duration, count func() int64) []edge {
	n := int(math.Ceil(seconds / every.Seconds()))
	if n < 1 {
		n = 1
	}
	edges := make([]edge, 0, n+1)
	edges = append(edges, readEdge(count))
	start := edges[0].at
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * every)))
		edges = append(edges, readEdge(count))
	}
	return edges
}

// rates is a run's throughput and CPU cost: the end-to-end estimate, which
// keeps to the undisturbed part of the run, and the whole-interval mean.
type rates struct {
	items            int64
	bestPerS, bestUs float64 // the end-to-end estimators
	meanPerS, meanUs float64 // whole interval, kept as layer metrics
	// disturbed is the share of windows (or batch units) that ran more than a
	// fifth slower than the best: how much of the run the box took away.
	disturbed float64
}

// fromWindows summarises the edges of a timed run. The estimators are the
// 90th-percentile window rate and the 10th-percentile window CPU cost:
// interference on a shared box only ever slows a window, so the fast tail
// repeats where the mean does not.
func fromWindows(edges []edge) rates {
	var r rates
	var perS, cpuUs []float64
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		n := float64(b.items - a.items)
		if n <= 0 {
			continue
		}
		perS = append(perS, n/b.at.Sub(a.at).Seconds())
		cpuUs = append(cpuUs, float64((b.cpu-a.cpu).Nanoseconds())/1e3/n)
	}
	first, last := edges[0], edges[len(edges)-1]
	if r.items = last.items - first.items; r.items == 0 {
		return r
	}
	r.bestPerS, r.bestUs = quantile(perS, 0.9), quantile(cpuUs, 0.1)
	r.meanPerS = float64(r.items) / last.at.Sub(first.at).Seconds()
	r.meanUs = float64((last.cpu - first.cpu).Nanoseconds()) / 1e3 / float64(r.items)
	for _, v := range perS {
		if v < 0.8*r.bestPerS {
			r.disturbed++
		}
	}
	r.disturbed /= float64(len(perS))
	return r
}

// unit is one job of a batch pass: a tracker run, a scenario cell.
type unit struct {
	items     int64
	wall, cpu time.Duration
}

// fromPasses summarises equal passes of the same units. The work of unit u
// is the same in every pass, so its best-decile time over the passes is its
// undisturbed cost; the estimate is the pass's items over the sum of those.
// It is the window estimator with the unit as the window.
func fromPasses(passes [][]unit) rates {
	var r rates
	if len(passes) == 0 {
		return r
	}
	var wall, cpu, bestWall, bestCPU float64
	var slow, samples float64
	for u := range passes[0] {
		var ws, cs []float64
		for _, p := range passes {
			ws = append(ws, p[u].wall.Seconds())
			cs = append(cs, p[u].cpu.Seconds())
			wall += p[u].wall.Seconds()
			cpu += p[u].cpu.Seconds()
			r.items += p[u].items
		}
		w := quantile(ws, 0.1)
		bestWall += w
		bestCPU += quantile(cs, 0.1)
		for _, v := range ws {
			samples++
			if v > 1.25*w {
				slow++
			}
		}
	}
	if r.items == 0 {
		return r
	}
	perPass := float64(r.items) / float64(len(passes))
	r.bestPerS, r.bestUs = perPass/bestWall, bestCPU*1e6/perPass
	r.meanPerS, r.meanUs = float64(r.items)/wall, cpu*1e6/float64(r.items)
	r.disturbed = slow / samples
	return r
}

// --- latency --------------------------------------------------------------

// stamps carries birth times from a source to a sink without touching the
// items: the source writes the wall clock into a preallocated table for one
// item in every, the sink reads it back for exactly those items. The buffer
// hand-off between the two orders the write before the read. Source and sink
// each keep the index of the next stamped item, so an item that is not
// stamped costs one comparison.
type stamps struct {
	epoch time.Time
	every int64
	birth []int64
	mask  int64

	nextBorn    int64 // source's side
	nextArrived int64 // sink's side

	// recording gates the sink's samples to the measured interval.
	recording atomic.Bool
	lat       []latSample // appended by the sink goroutine only, until full
}

// latSample is one latency in nanoseconds (saturating at 4.29 s) and the
// latency window it was taken in; eight bytes, so that stamping every item of
// a 30 k items/s workload stays a small part of the live heap.
type latSample struct{ win, ns uint32 }

// newStamps sizes the table for inflight items between source and sink and
// the sample slice for maxSamples latencies.
func newStamps(every, inflight int64, maxSamples int) *stamps {
	slots := int64(64)
	for slots < 2*(inflight/every+2) {
		slots <<= 1
	}
	return &stamps{
		epoch: time.Now(), every: every,
		birth: make([]int64, slots), mask: slots - 1,
		lat: make([]latSample, 0, maxSamples),
	}
}

// born is called by the source before it puts the item with index k; the
// indices it is called with must include every multiple of every.
func (s *stamps) born(k int64) {
	if k != s.nextBorn {
		return
	}
	s.nextBorn += s.every
	s.birth[(k/s.every)&s.mask] = int64(time.Since(s.epoch))
}

// arrived is called by the sink after it received the item with index k, in
// increasing order of k (a sink that skips items stamps every one).
func (s *stamps) arrived(k int64) {
	if k < s.nextArrived {
		return
	}
	s.nextArrived = (k/s.every + 1) * s.every
	if k%s.every != 0 || !s.recording.Load() || len(s.lat) == cap(s.lat) {
		return // once lat is full the windows sampled so far carry the percentiles
	}
	now := int64(time.Since(s.epoch))
	ns := now - s.birth[(k/s.every)&s.mask]
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.lat = append(s.lat, latSample{uint32(now / int64(latencyWindow)), uint32(ns)})
}

// windowedLatencyUs reports latency percentiles in microseconds as the
// lower quartile, over the run's windows, of each window's own percentile:
// interference only ever adds latency, so the quiet quarter of the run
// repeats where the whole does not.
func windowedLatencyUs(samples []latSample, qs ...float64) []float64 {
	perWindow := make([][]float64, len(qs))
	var win []int64
	flush := func() {
		if len(win) >= 20 {
			for i, v := range latencyUs(win, qs...) {
				perWindow[i] = append(perWindow[i], v)
			}
		}
		win = win[:0]
	}
	for i, s := range samples {
		if i > 0 && s.win != samples[i-1].win {
			flush()
		}
		win = append(win, int64(s.ns))
	}
	flush()
	out := make([]float64, len(qs))
	for i := range qs {
		out[i] = quantile(perWindow[i], 0.25)
	}
	return out
}

// latencyUs reports percentiles of a nanosecond sample in microseconds.
func latencyUs(ns []int64, qs ...float64) []float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}

// --- reporting ------------------------------------------------------------

// outcome is what every workload hands to emit: the same fields whether the
// items were relayed, simulated or sent over a socket.
type outcome struct {
	setupS  []float64 // one per set-up made
	ref, r  rates     // ref is the untraced first third of a traced run
	heapMB  float64
	latUs   []float64 // p50, p95, p99
	mallocs uint64
	gcs     uint32

	buildMs, stopMs      float64
	waitedS              float64 // consumer time parked in Get, from the runtime's histograms
	snap                 rt.Snapshot
	producers, consumers int
	skippedFrac          float64
	reattaches           int64
}

func (o outcome) allocsPerItem() float64 {
	return float64(o.mallocs) / float64(o.r.items+o.ref.items)
}

// emit prints the end-to-end metrics of an untraced run, or the
// workload-derived layer metrics of a traced one.
func (o outcome) emit(cfg runCfg, rep *report) {
	if !cfg.trace {
		rep.set("setup_s", median(o.setupS))
		rep.set("items_per_s", o.r.bestPerS)
		rep.set("cpu_us_per_item", o.r.bestUs)
		rep.set("live_heap_mb", o.heapMB)
		rep.set("latency_p50_us", o.latUs[0])
		rep.set("latency_p95_us", o.latUs[1])
		return
	}
	spans := rep.spans.all()
	d := durations(spans)
	var hw int64
	var putBlocked time.Duration
	for _, b := range o.snap.Buffers {
		if b.HighWaterItems > hw {
			hw = b.HighWaterItems
		}
		putBlocked += b.PutBlocked
	}
	// share is the part of threads' wall time, over span seconds, spent busy.
	share := func(busy, span float64, threads int) float64 {
		if threads == 0 || span <= 0 {
			return 0
		}
		return busy / (span * float64(threads))
	}
	rep.set("runtime.put_ns", median(d["runtime.put"]))
	rep.set("runtime.get_ns", median(d["runtime.get"]))
	rep.set("runtime.sync_ns", median(d["runtime.sync"]))
	rep.set("runtime.putbatch_ns_per_item", median(d["runtime.putbatch"])/batch)
	rep.set("runtime.getbatch_ns_per_item", median(d["runtime.getbatch"])/batch)
	rep.set("runtime.get_wait_share", share(o.waitedS, cfg.seconds, o.consumers))
	rep.set("runtime.build_start_ms", o.buildMs)
	rep.set("runtime.stop_wait_ms", o.stopMs)
	rep.set("runtime.allocs_per_item", o.allocsPerItem())
	rep.set("sink.items_per_s_mean", o.r.meanPerS)
	rep.set("sink.latency_p99_us", o.latUs[2])
	rep.set("sink.skipped_frac", o.skippedFrac)
	rep.set("proc.cpu_us_per_item_mean", o.r.meanUs)
	rep.set("proc.gc_cycles", float64(o.gcs))
	rep.set("buffer.high_water_items", float64(hw))
	rep.set("buffer.put_blocked_share", share(putBlocked.Seconds(), o.snap.At.Seconds(), o.producers))
	rep.set("remote.reattaches", float64(o.reattaches))
	rep.set("harness.trace_overhead_frac", 1-o.r.bestPerS/o.ref.bestPerS)
	rep.set("harness.disturbed_windows_frac", o.r.disturbed)
	rep.set("harness.spans", float64(len(spans)))
}
