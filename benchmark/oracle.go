package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	rt "repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Output checks. Each checker is fed by a sink (or handed a result) and
// keeps the first violation it saw; oracle_test.go feeds every one a gap, a
// duplicate and a reorder and expects it to object.

// seqCheck verifies the order of the timestamps a sink receives. A FIFO
// sink must see every timestamp exactly once and in order; a get-latest
// sink may skip but must never see one twice or go backwards.
type seqCheck struct {
	fifo    bool
	first   int64
	last    int64
	n       int64
	bad     int64
	problem string
}

func (c *seqCheck) see(ts int64) {
	switch {
	case c.n == 0:
		c.first = ts
	case c.fifo && ts != c.last+1, ts <= c.last:
		c.miss(ts)
	}
	c.last = ts
	c.n++
}

func (c *seqCheck) miss(ts int64) {
	if c.bad == 0 {
		c.problem = fmt.Sprintf("timestamp %d after %d (fifo=%v)", ts, c.last, c.fifo)
	}
	c.bad++
}

// skipped is how many source timestamps the sink passed over.
func (c *seqCheck) skipped() int64 {
	if c.n == 0 {
		return 0
	}
	return c.last - c.first + 1 - c.n
}

func (c *seqCheck) report(rep *report, who string) {
	rep.attempted += c.n
	rep.failed += c.bad
	if c.bad > 0 {
		rep.failf("%s: %d order violations, first: %s", who, c.bad, c.problem)
	}
	if c.n == 0 {
		rep.failf("%s: received nothing", who)
	}
}

// checkPayload verifies one wire payload against the one the producer sent
// for that timestamp: same length, same tag, same checksum byte.
func checkPayload(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("payload length %d, want %d", len(got), len(want))
	}
	if got[0] != want[0] {
		return fmt.Errorf("payload tag %d, want %d", got[0], want[0])
	}
	if sum := checksum(got[:len(got)-1]); got[len(got)-1] != sum {
		return fmt.Errorf("payload checksum byte %d, computed %d", got[len(got)-1], sum)
	}
	return nil
}

func checksum(b []byte) byte {
	var s byte
	for _, v := range b {
		s += v
	}
	return s + 1 // an all-zero buffer must not pass
}

// checkResidue verifies conservation on a stopped FIFO pipeline: whatever
// the source put and the sink did not receive was still inside the buffers,
// so it cannot exceed their capacities plus one item in each relay's hands.
func checkResidue(rep *report, sourcePuts, sinkGot, capacity int64) {
	if res := sourcePuts - sinkGot; res < 0 || res > capacity {
		rep.failf("residue %d items (source put %d, sink got %d), buffers hold at most %d", res, sourcePuts, sinkGot, capacity)
	}
}

// checkAccounting verifies every in-process buffer's own books: puts minus
// frees is what it still holds. A remote endpoint keeps no such books; its
// storage is the server's.
func checkAccounting(rep *report, snap rt.Snapshot) {
	for _, b := range snap.Buffers {
		if b.Backend != "remote" && b.Puts-b.Frees != int64(b.Items) {
			rep.failf("buffer %s: puts %d - frees %d != occupancy %d", b.Name, b.Puts, b.Frees, b.Items)
		}
	}
}

// checkTracker verifies one virtual-clock tracker run's books: every item
// is either successful or wasted, and something was displayed.
func checkTracker(rep *report, who string, a *trace.Analysis) {
	rep.attempted++
	switch {
	case a.ItemsTotal != a.ItemsSuccessful+a.ItemsWasted:
		rep.failf("%s: %d items != %d successful + %d wasted", who, a.ItemsTotal, a.ItemsSuccessful, a.ItemsWasted)
	case a.Outputs == 0:
		rep.failf("%s: no outputs", who)
	default:
		return
	}
	rep.failed++
}

// checkARUSaves verifies the paper's headline on one host count: the ARU
// footprint is below the no-ARU footprint.
func checkARUSaves(rep *report, who string, off, aru *trace.Analysis) {
	if aru.All.MeanBytes >= off.All.MeanBytes {
		rep.failed++
		rep.failf("%s: ARU footprint %.0f B is not below no-ARU %.0f B", who, aru.All.MeanBytes, off.All.MeanBytes)
	}
}

// fingerprint is what must repeat exactly when a virtual-clock run is
// repeated with the same seed.
func fingerprint(a *trace.Analysis) string {
	return fmt.Sprintf("%d/%d/%d/%d/%v/%v/%v/%v", a.ItemsTotal, a.ItemsWasted, a.Outputs, a.Skips,
		a.All.MeanBytes, a.WastedMemPct, a.LatencyP50, a.LatencyP95)
}

// cellEqual reports whether a fresh scenario cell is byte-equal to its pin.
func cellEqual(got, want *scenario.CellMetrics) bool {
	a, errA := json.Marshal(got)
	b, errB := json.Marshal(want)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// checkAIMD verifies the matrix-wide differential: on every coordinate the
// damped estimator drops no more items than raw propagation.
func checkAIMD(rep *report, cells []*scenario.CellMetrics) {
	raw := map[string]int{}
	for _, c := range cells {
		if c.Estimator == "raw" {
			raw[aimdKey(c)] = c.Drops
		}
	}
	for _, c := range cells {
		if r, ok := raw[aimdKey(c)]; ok && c.Estimator == "aimd" && c.Drops > r {
			rep.failed++
			rep.failf("cell %s: aimd dropped %d > raw %d", aimdKey(c), c.Drops, r)
		}
	}
}

func aimdKey(c *scenario.CellMetrics) string {
	return fmt.Sprintf("%s/%s/f%d/%v/%v", c.Topology, c.Shape, c.Failures, c.DrainMode, c.ElasticMode)
}
