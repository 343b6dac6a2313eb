package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/vt"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

// buildPipelineTrace fabricates a two-stage pipeline run:
//
//	source thread (node 0) -> channel A (node 1) -> worker (node 2)
//	  -> channel B (node 3) -> sink (node 4)
//
// Source items 1..4 are produced at t=0..3 s (100 bytes each). The worker
// consumes items 1 and 3, producing derived items 11 and 13 (50 bytes)
// into channel B; items 2 and 4 are skipped (wasted). The sink consumes
// and emits outputs for items 11 and 13.
func buildPipelineTrace() []Event {
	const (
		srcThread  = graph.NodeID(0)
		chanA      = graph.NodeID(1)
		workThread = graph.NodeID(2)
		chanB      = graph.NodeID(3)
		sinkThread = graph.NodeID(4)
	)
	var evs []Event
	alloc := func(id ItemID, node, prod graph.NodeID, ts vt.Timestamp, size int64, at time.Duration, inputs ...ItemID) {
		evs = append(evs, Event{Kind: EvAlloc, Item: id, Node: node, Thread: prod, TS: ts, Size: size, At: at, Items: inputs})
	}
	// Source items.
	for i := 1; i <= 4; i++ {
		alloc(ItemID(i), chanA, srcThread, vt.Timestamp(i), 100, sec(float64(i-1)))
		evs = append(evs, Event{Kind: EvIter, Thread: srcThread, At: sec(float64(i - 1)), Compute: 100 * time.Millisecond, Items: []ItemID{ItemID(i)}})
	}
	// Worker consumes 1 and 3; 2 and 4 skipped and freed unconsumed.
	evs = append(evs,
		Event{Kind: EvGet, Item: 1, Node: chanA, Thread: workThread, At: sec(0.5)},
		Event{Kind: EvSkip, Item: 2, Node: chanA, Thread: workThread, At: sec(2.1)},
		Event{Kind: EvGet, Item: 3, Node: chanA, Thread: workThread, At: sec(2.2)},
		Event{Kind: EvSkip, Item: 4, Node: chanA, Thread: workThread, At: sec(3.5)},
	)
	alloc(11, chanB, workThread, 1, 50, sec(1.5), 1)
	evs = append(evs, Event{Kind: EvIter, Thread: workThread, At: sec(1.5), Compute: 800 * time.Millisecond, Items: []ItemID{11}})
	alloc(13, chanB, workThread, 3, 50, sec(3.2), 3)
	evs = append(evs, Event{Kind: EvIter, Thread: workThread, At: sec(3.2), Compute: 800 * time.Millisecond, Items: []ItemID{13}})
	// Frees.
	for _, f := range []struct {
		id   ItemID
		node graph.NodeID
		at   time.Duration
	}{{1, chanA, sec(2.2)}, {2, chanA, sec(2.2)}, {3, chanA, sec(3.6)}, {4, chanA, sec(3.8)}, {11, chanB, sec(3.0)}, {13, chanB, sec(4.5)}} {
		evs = append(evs, Event{Kind: EvFree, Item: f.id, Node: f.node, At: f.at})
	}
	// Sink consumes and emits.
	evs = append(evs,
		Event{Kind: EvGet, Item: 11, Node: chanB, Thread: sinkThread, At: sec(2.0)},
		Event{Kind: EvEmit, Thread: sinkThread, At: sec(2.5), Items: []ItemID{11}},
		Event{Kind: EvIter, Thread: sinkThread, At: sec(2.5), Compute: 200 * time.Millisecond},
		Event{Kind: EvGet, Item: 13, Node: chanB, Thread: sinkThread, At: sec(4.0)},
		Event{Kind: EvEmit, Thread: sinkThread, At: sec(4.5), Items: []ItemID{13}},
		Event{Kind: EvIter, Thread: sinkThread, At: sec(4.5), Compute: 200 * time.Millisecond},
	)
	return evs
}

func mustAnalyze(t *testing.T, evs []Event, opt AnalyzeOptions) *Analysis {
	t.Helper()
	a, err := AnalyzeEvents(evs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeSuccessMarking(t *testing.T) {
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{})
	wantSuccess := map[ItemID]bool{1: true, 2: false, 3: true, 4: false, 11: true, 13: true}
	for id, want := range wantSuccess {
		it := a.Item(id)
		if it == nil {
			t.Fatalf("item %d missing", id)
		}
		if it.Successful != want {
			t.Errorf("item %d Successful = %v, want %v", id, it.Successful, want)
		}
	}
	if a.ItemsTotal != 6 || a.ItemsSuccessful != 4 || a.ItemsWasted != 2 {
		t.Errorf("counts = %d/%d/%d", a.ItemsTotal, a.ItemsSuccessful, a.ItemsWasted)
	}
	if a.Gets != 4 || a.Skips != 2 {
		t.Errorf("gets/skips = %d/%d", a.Gets, a.Skips)
	}
}

func TestAnalyzeComputeAccounting(t *testing.T) {
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{})
	// Total = 4×100ms (source) + 2×800ms (worker) + 2×200ms (sink) = 2.4s.
	if a.TotalCompute != 2400*time.Millisecond {
		t.Errorf("TotalCompute = %v", a.TotalCompute)
	}
	// Wasted: source iterations that produced items 2 and 4 → 200ms.
	if a.WastedCompute != 200*time.Millisecond {
		t.Errorf("WastedCompute = %v", a.WastedCompute)
	}
	wantPct := 100 * 200.0 / 2400.0
	if math.Abs(a.WastedCompPct-wantPct) > 1e-9 {
		t.Errorf("WastedCompPct = %v, want %v", a.WastedCompPct, wantPct)
	}
}

func TestAnalyzeOutputsAndLatency(t *testing.T) {
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{})
	if a.Outputs != 2 {
		t.Fatalf("Outputs = %d", a.Outputs)
	}
	// Output 1 at 2.5s from item 11 whose root (item 1) was allocated at
	// t=0 → latency 2.5 s. Output 2 at 4.5 s, root item 3 allocated at
	// 2 s → latency 2.5 s.
	if len(a.Latencies) != 2 {
		t.Fatalf("Latencies = %v", a.Latencies)
	}
	for i, want := range []time.Duration{sec(2.5), sec(2.5)} {
		if a.Latencies[i] != want {
			t.Errorf("latency[%d] = %v, want %v", i, a.Latencies[i], want)
		}
	}
	if a.LatencyMean != sec(2.5) || a.LatencyStd != 0 {
		t.Errorf("latency mean/std = %v/%v", a.LatencyMean, a.LatencyStd)
	}
	// Window is [0, 4.5s) by default (last event at 4.5s)... To==end, so
	// emit at exactly 4.5 is excluded by the half-open window only if
	// To == 4.5; ensure both outputs counted by extending the window.
	a2 := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{To: sec(5)})
	if a2.Outputs != 2 {
		t.Fatalf("extended window Outputs = %d", a2.Outputs)
	}
	if got := a2.ThroughputFPS; math.Abs(got-2.0/5.0) > 1e-9 {
		t.Errorf("ThroughputFPS = %v", got)
	}
}

func TestAnalyzeFootprint(t *testing.T) {
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{To: sec(5)})
	// Hand-computed integral of the all-items series (byte·seconds):
	// item1 100B [0,2.2) = 220; item2 100B [1,2.2) = 120;
	// item3 100B [2,3.6) = 160; item4 100B [3,3.8) = 80;
	// item11 50B [1.5,3.0) = 75; item13 50B [3.2,4.5) = 65. Total 720.
	if math.Abs(a.All.IntegralByteSec-720) > 1e-6 {
		t.Errorf("All integral = %v, want 720", a.All.IntegralByteSec)
	}
	if math.Abs(a.All.MeanBytes-720.0/5.0) > 1e-6 {
		t.Errorf("All mean = %v", a.All.MeanBytes)
	}
	// Wasted: items 2 and 4 → 120 + 80 = 200.
	if math.Abs(a.Wasted.IntegralByteSec-200) > 1e-6 {
		t.Errorf("Wasted integral = %v, want 200", a.Wasted.IntegralByteSec)
	}
	if math.Abs(a.WastedMemPct-100*200.0/720.0) > 1e-6 {
		t.Errorf("WastedMemPct = %v", a.WastedMemPct)
	}
	// IGC: successful items, alloc→last get:
	// item1 [0,0.5)=50, item3 [2,2.2)=20, item11 [1.5,2.0)=25,
	// item13 [3.2,4.0)=40. Total 135.
	if math.Abs(a.IGC.IntegralByteSec-135) > 1e-6 {
		t.Errorf("IGC integral = %v, want 135", a.IGC.IntegralByteSec)
	}
	if a.IGC.IntegralByteSec >= a.All.IntegralByteSec {
		t.Error("IGC must be a strict lower bound here")
	}
	// Peak: at t=2.0..2.2 items 1,2,3,11 live = 350.
	if a.All.PeakBytes != 350 {
		t.Errorf("Peak = %v, want 350", a.All.PeakBytes)
	}
}

// TestPeakBytesTieOrderInvariant checks that a footprint peak does not
// depend on the order of alloc/free deltas sharing one instant: the step
// series folds every delta at an instant into one value, so an
// intermediate level (here 450 B, if the alloc applied first) never
// becomes a segment of the series. Every permutation of the
// equal-instant events, each analyzed several times over the
// analyzer's randomized map order, must give the same peak.
func TestPeakBytesTieOrderInvariant(t *testing.T) {
	base := []Event{
		{Kind: EvAlloc, Item: 1, Size: 100, At: 0},
		{Kind: EvAlloc, Item: 2, Size: 200, At: 0},
		{Kind: EvFree, Item: 3, At: sec(2)},
	}
	tied := []Event{
		{Kind: EvFree, Item: 1, At: sec(1)},
		{Kind: EvFree, Item: 2, At: sec(1)},
		{Kind: EvAlloc, Item: 3, Size: 150, At: sec(1)},
	}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		evs := append([]Event(nil), base[:2]...)
		for _, i := range perm {
			evs = append(evs, tied[i])
		}
		evs = append(evs, base[2])
		for rep := 0; rep < 8; rep++ {
			a := mustAnalyze(t, evs, AnalyzeOptions{To: sec(3)})
			if a.All.PeakBytes != 300 {
				t.Fatalf("order %v: PeakBytes = %v, want 300", perm, a.All.PeakBytes)
			}
		}
	}
}

func TestAnalyzeWindowClipping(t *testing.T) {
	// Restrict to [2s, 4s): only the second emit's predecessor window.
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{From: sec(2), To: sec(4)})
	if a.Outputs != 1 {
		t.Fatalf("clipped Outputs = %d", a.Outputs)
	}
	if a.OutputTimes[0] != sec(2.5) {
		t.Errorf("clipped output time = %v", a.OutputTimes[0])
	}
	if a.ThroughputFPS != 0.5 {
		t.Errorf("clipped throughput = %v", a.ThroughputFPS)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := AnalyzeEvents([]Event{
		{Kind: EvAlloc, Item: 1, At: sec(1)},
		{Kind: EvAlloc, Item: 1, At: sec(2)},
	}, AnalyzeOptions{}); err == nil {
		t.Error("duplicate alloc must error")
	}
	if _, err := AnalyzeEvents([]Event{
		{Kind: EvAlloc, Item: 1, At: sec(1)},
		{Kind: EvFree, Item: 1, At: sec(2)},
		{Kind: EvFree, Item: 1, At: sec(3)},
	}, AnalyzeOptions{}); err == nil {
		t.Error("double free must error")
	}
	if _, err := AnalyzeEvents(nil, AnalyzeOptions{From: sec(5), To: sec(1)}); err == nil {
		t.Error("inverted window must error")
	}
}

func TestAnalyzeUnfreedItemLivesToEnd(t *testing.T) {
	evs := []Event{
		{Kind: EvAlloc, Item: 1, Size: 100, At: 0},
		{Kind: EvGet, Item: 1, At: sec(1)},
		{Kind: EvEmit, At: sec(2), Items: []ItemID{1}},
	}
	a := mustAnalyze(t, evs, AnalyzeOptions{To: sec(2)})
	// Item never freed: live [0, 2s) → 200 byte·sec.
	if math.Abs(a.All.IntegralByteSec-200) > 1e-6 {
		t.Errorf("integral = %v", a.All.IntegralByteSec)
	}
	if a.Item(1).Freed {
		t.Error("item must be marked unfreed")
	}
}

func TestAnalyzeJitter(t *testing.T) {
	evs := []Event{
		{Kind: EvAlloc, Item: 1, Size: 1, At: 0},
		{Kind: EvEmit, At: sec(1), Items: []ItemID{1}},
		{Kind: EvEmit, At: sec(2), Items: []ItemID{1}},
		{Kind: EvEmit, At: sec(4), Items: []ItemID{1}},
	}
	a := mustAnalyze(t, evs, AnalyzeOptions{To: sec(5)})
	// Gaps 1s and 2s → mean 1.5s, population std 0.5s.
	if a.Jitter != sec(0.5) {
		t.Errorf("Jitter = %v, want 0.5s", a.Jitter)
	}
}

func TestAnalyzeSinkOnlyIterationsAreUseful(t *testing.T) {
	evs := []Event{
		{Kind: EvAlloc, Item: 1, Size: 1, At: 0},
		{Kind: EvIter, Thread: 4, At: sec(1), Compute: sec(1)}, // no produced items
	}
	a := mustAnalyze(t, evs, AnalyzeOptions{To: sec(2)})
	if a.WastedCompute != 0 {
		t.Errorf("sink iteration must not be wasted, got %v", a.WastedCompute)
	}
	if a.TotalCompute != sec(1) {
		t.Errorf("TotalCompute = %v", a.TotalCompute)
	}
}

func TestAnalyzeLatencyPercentiles(t *testing.T) {
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{To: sec(5)})
	// Both latencies are 2.5s → all percentiles equal.
	if a.LatencyP50 != sec(2.5) || a.LatencyP95 != sec(2.5) || a.LatencyP99 != sec(2.5) {
		t.Fatalf("percentiles = %v/%v/%v", a.LatencyP50, a.LatencyP95, a.LatencyP99)
	}
	// No outputs → zero percentiles.
	b := mustAnalyze(t, []Event{{Kind: EvAlloc, Item: 1, At: sec(1)}}, AnalyzeOptions{To: sec(2)})
	if b.LatencyP50 != 0 || b.LatencyP99 != 0 {
		t.Fatalf("empty percentiles = %v/%v", b.LatencyP50, b.LatencyP99)
	}
}

func TestSummaryAndJSON(t *testing.T) {
	a := mustAnalyze(t, buildPipelineTrace(), AnalyzeOptions{To: sec(5)})
	s := a.Summary()
	if s.Outputs != a.Outputs || s.ItemsTotal != a.ItemsTotal {
		t.Fatal("summary counts diverge")
	}
	if s.MeanFootprintBytes != a.All.MeanBytes || s.IGCMeanBytes != a.IGC.MeanBytes {
		t.Fatal("summary footprint diverges")
	}
	if s.LatencyMeanMS != 2500 {
		t.Fatalf("latency ms = %v, want 2500", s.LatencyMeanMS)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatal("JSON round trip diverges")
	}
}
