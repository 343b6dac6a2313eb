package main

import (
	"testing"
	"time"

	rt "repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Every checker is fed a clean stream and then the three faults a broken
// buffer can produce — a gap, a duplicate, a reorder — and must object to
// exactly the ones its discipline forbids.

func feed(c *seqCheck, tss ...int64) *seqCheck {
	for _, ts := range tss {
		c.see(ts)
	}
	return c
}

func TestSeqCheckFaults(t *testing.T) {
	cases := []struct {
		name               string
		stream             []int64
		fifoBad, latestBad int64
	}{
		{"clean", []int64{1, 2, 3, 4, 5}, 0, 0},
		{"gap", []int64{1, 2, 4, 5}, 1, 0}, // a get-latest sink may skip
		{"duplicate", []int64{1, 2, 2, 3}, 1, 1},
		{"reorder", []int64{1, 3, 2, 4}, 3, 1},
	}
	for _, tc := range cases {
		if got := feed(&seqCheck{fifo: true}, tc.stream...).bad; got != tc.fifoBad {
			t.Errorf("fifo %s: %d violations, want %d", tc.name, got, tc.fifoBad)
		}
		if got := feed(&seqCheck{}, tc.stream...).bad; got != tc.latestBad {
			t.Errorf("latest %s: %d violations, want %d", tc.name, got, tc.latestBad)
		}
	}
	if got := feed(&seqCheck{}, 3, 5, 9).skipped(); got != 4 {
		t.Errorf("skipped = %d, want 4", got)
	}

	rep := newReport()
	feed(&seqCheck{fifo: true}, 1, 2, 4).report(rep, "sink")
	if rep.failed != 1 || len(rep.problems) != 1 || rep.attempted != 3 {
		t.Errorf("report after a gap: attempted %d failed %d problems %v", rep.attempted, rep.failed, rep.problems)
	}
	rep = newReport()
	(&seqCheck{}).report(rep, "sink")
	if len(rep.problems) != 1 {
		t.Errorf("a sink that received nothing must be reported, got %v", rep.problems)
	}
}

func TestPayloadFaults(t *testing.T) {
	_, raw := wirePayloads(7)
	for i, p := range raw {
		if err := checkPayload(p, p); err != nil {
			t.Fatalf("payload %d fails its own check: %v", i, err)
		}
	}
	var small [][]byte // the 68-byte payloads: same length, different tags
	for _, p := range raw {
		if len(p) == 68 {
			small = append(small, p)
		}
	}
	want, other := small[0], small[1]
	short := append([]byte(nil), want[:len(want)-1]...)
	flipped := append([]byte(nil), want...)
	flipped[len(flipped)/2] ^= 0x40
	for name, got := range map[string][]byte{"truncated": short, "corrupted": flipped, "wrong item": other, "zeroed": make([]byte, len(want))} {
		if checkPayload(got, want) == nil {
			t.Errorf("%s payload passed the check", name)
		}
	}
}

func TestConservationFaults(t *testing.T) {
	residue := func(put, got int64) int {
		rep := newReport()
		checkResidue(rep, put, got, 3026)
		return len(rep.problems)
	}
	if residue(10_000, 9_000) != 0 || residue(10_000, 10_000) != 0 {
		t.Error("a residue inside the buffers' capacity was rejected")
	}
	if residue(10_000, 5_000) != 1 {
		t.Error("lost items (residue above capacity) passed")
	}
	if residue(10_000, 10_001) != 1 {
		t.Error("a duplicated delivery (negative residue) passed")
	}

	books := func(b rt.BufferStatus) int {
		rep := newReport()
		checkAccounting(rep, rt.Snapshot{Buffers: []rt.BufferStatus{b}})
		return len(rep.problems)
	}
	if books(rt.BufferStatus{Puts: 10, Frees: 7, Items: 3}) != 0 {
		t.Error("balanced books were rejected")
	}
	if books(rt.BufferStatus{Puts: 10, Frees: 6, Items: 3}) != 1 {
		t.Error("a leaked item passed the accounting check")
	}
	if books(rt.BufferStatus{Backend: "remote", Puts: 10}) != 0 {
		t.Error("a remote endpoint has no free counter and must be skipped")
	}
}

func TestTrackerFaults(t *testing.T) {
	good := &trace.Analysis{ItemsTotal: 10, ItemsSuccessful: 8, ItemsWasted: 2, Outputs: 3}
	good.All.MeanBytes = 100
	failed := func(f func(*report)) int64 {
		rep := newReport()
		f(rep)
		return rep.failed
	}
	if failed(func(r *report) { checkTracker(r, "t", good) }) != 0 {
		t.Error("a consistent analysis was rejected")
	}
	lost := *good
	lost.ItemsWasted = 1
	if failed(func(r *report) { checkTracker(r, "t", &lost) }) != 1 {
		t.Error("an item neither successful nor wasted passed")
	}
	blind := *good
	blind.Outputs = 0
	if failed(func(r *report) { checkTracker(r, "t", &blind) }) != 1 {
		t.Error("a run with no outputs passed")
	}

	off := *good
	off.All.MeanBytes = 400
	if failed(func(r *report) { checkARUSaves(r, "h", &off, good) }) != 0 {
		t.Error("ARU below no-ARU was rejected")
	}
	if failed(func(r *report) { checkARUSaves(r, "h", good, &off) }) != 1 {
		t.Error("ARU above no-ARU passed")
	}

	later := *good
	later.LatencyP50 = time.Millisecond
	if fingerprint(good) == fingerprint(&later) {
		t.Error("fingerprint ignores latency")
	}
}

func TestScenarioFaults(t *testing.T) {
	pin := &scenario.CellMetrics{Topology: "chain", Shape: "steady", Estimator: "raw", Emitted: 266, Drops: 4}
	same := *pin
	if !cellEqual(&same, pin) {
		t.Error("a cell differs from its own copy")
	}
	drift := *pin
	drift.Emitted++
	if cellEqual(&drift, pin) {
		t.Error("a drifted cell equals its pin")
	}

	aimd := *pin
	aimd.Estimator = "aimd"
	rep := newReport()
	checkAIMD(rep, []*scenario.CellMetrics{pin, &aimd})
	if rep.failed != 0 {
		t.Error("aimd dropping as much as raw was rejected")
	}
	aimd.Drops = 5
	checkAIMD(rep, []*scenario.CellMetrics{pin, &aimd})
	if rep.failed != 1 {
		t.Error("aimd dropping more than raw passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
