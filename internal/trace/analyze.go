package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/vt"

	"repro/internal/graph"
)

// Footprint summarizes one memory-occupancy step series over the analysis
// window using the paper's time-weighted formulas.
type Footprint struct {
	// MeanBytes is MUμ: the time-weighted mean occupancy.
	MeanBytes float64
	// StdBytes is MUσ: the time-weighted standard deviation.
	StdBytes float64
	// PeakBytes is the maximum occupancy within the window.
	PeakBytes float64
	// IntegralByteSec is the occupancy integral in byte·seconds.
	IntegralByteSec float64
	// Series is the underlying step function (bytes versus runtime time).
	Series *stats.StepSeries
}

// ItemInfo is the reconstructed lifecycle of one item.
type ItemInfo struct {
	ID         ItemID
	Node       graph.NodeID // channel/queue that held the item
	Producer   graph.NodeID
	TS         vt.Timestamp
	Size       int64
	AllocAt    time.Duration
	FreeAt     time.Duration // run end if never freed
	Freed      bool
	Gets       int
	Skips      int
	LastGetAt  time.Duration
	Inputs     []ItemID
	Successful bool
}

// Analysis is the result of the postmortem pass over one run's trace.
type Analysis struct {
	// From and To delimit the analysis window on the runtime clock.
	From, To time.Duration

	// All is the footprint of every live item (what the application
	// actually held). Wasted covers only items classified unsuccessful.
	// IGC is the Ideal Garbage Collector bound: successful items only,
	// each live exactly from allocation to its last use (§4: IGC
	// "eliminate[s] all unnecessary computations ... and associated
	// memory usage"; it requires future knowledge and is not realizable).
	All, Wasted, IGC Footprint

	// WastedMemPct is the percentage of the total memory integral spent
	// on items that never reached the end of the pipeline.
	WastedMemPct float64

	// TotalCompute is the work done by all tasks (execution time
	// excluding blocking and throttle sleep). WastedCompute is the part
	// spent on iterations whose produced items were all dropped.
	TotalCompute, WastedCompute time.Duration
	WastedCompPct               float64

	// Outputs is the number of pipeline outputs (displayed frames) in
	// the window; OutputTimes their runtime-clock times.
	Outputs     int
	OutputTimes []time.Duration
	// ThroughputFPS is Outputs divided by the window length.
	ThroughputFPS float64
	// LatencyMean/LatencyStd summarize per-output pipeline latency: the
	// time from the allocation of the earliest source item in the
	// output's provenance to the output emit. LatencyP50/P95/P99 are the
	// corresponding percentiles.
	LatencyMean, LatencyStd            time.Duration
	LatencyP50, LatencyP95, LatencyP99 time.Duration
	Latencies                          []time.Duration
	// Jitter is the standard deviation of successive output gaps.
	Jitter time.Duration

	// Item population counts over the whole run (not window-clipped).
	ItemsTotal, ItemsSuccessful, ItemsWasted int
	Gets, Skips                              int

	// Items maps every item id to its reconstructed lifecycle.
	Items map[ItemID]*ItemInfo
}

// AnalyzeOptions tunes the postmortem pass.
type AnalyzeOptions struct {
	// From/To delimit the analysis window. A zero To means the time of
	// the last event.
	From, To time.Duration
}

// Analyze runs the postmortem analysis over a recorder's events, reading
// them where they lie: the events recorded when it is called, without a
// copy.
func Analyze(r *Recorder, opt AnalyzeOptions) (*Analysis, error) {
	return analyze(r.segments(), opt)
}

// AnalyzeEvents runs the postmortem analysis over an explicit event list.
func AnalyzeEvents(events []Event, opt AnalyzeOptions) (*Analysis, error) {
	return analyze([][]Event{events}, opt)
}

// analyze is the postmortem pass over a trace held as consecutive
// segments, in append order.
func analyze(segs [][]Event, opt AnalyzeOptions) (*Analysis, error) {
	end := opt.To
	var counts [EvEmit + 1]int
	for _, events := range segs {
		for i := range events {
			ev := &events[i]
			if ev.At > end {
				end = ev.At
			}
			if ev.Kind <= EvEmit {
				counts[ev.Kind]++
			}
		}
	}
	allocs := counts[EvAlloc]
	if opt.To == 0 {
		// Default window covers every event; +1ns keeps the half-open
		// interval from excluding events at exactly the last instant.
		opt.To = end + 1
	}
	if opt.To <= opt.From {
		return nil, fmt.Errorf("trace: empty analysis window [%v, %v)", opt.From, opt.To)
	}

	a := &Analysis{
		From:  opt.From,
		To:    opt.To,
		Items: make(map[ItemID]*ItemInfo, allocs),
	}
	// Every ItemInfo lives in one slab; Items points into it.
	slab := make([]ItemInfo, 0, allocs)

	// Pass 1: reconstruct item lifecycles and gather iteration/output
	// events.
	type iterRec struct {
		compute  time.Duration
		produced []ItemID
	}
	iters := make([]iterRec, 0, counts[EvIter])
	type emitRec struct {
		at    time.Duration
		items []ItemID
	}
	emits := make([]emitRec, 0, counts[EvEmit])

	for _, events := range segs {
		for i := range events {
			ev := &events[i]
			switch ev.Kind {
			case EvAlloc:
				if _, dup := a.Items[ev.Item]; dup {
					return nil, fmt.Errorf("trace: duplicate alloc for item %d", ev.Item)
				}
				slab = append(slab, ItemInfo{
					ID:       ev.Item,
					Node:     ev.Node,
					Producer: ev.Thread,
					TS:       ev.TS,
					Size:     ev.Size,
					AllocAt:  ev.At,
					FreeAt:   end,
					Inputs:   ev.Items,
				})
				a.Items[ev.Item] = &slab[len(slab)-1]
			case EvGet:
				if it, ok := a.Items[ev.Item]; ok {
					it.Gets++
					if ev.At > it.LastGetAt {
						it.LastGetAt = ev.At
					}
					a.Gets++
				}
			case EvSkip:
				if it, ok := a.Items[ev.Item]; ok {
					it.Skips++
					a.Skips++
				}
			case EvFree:
				if it, ok := a.Items[ev.Item]; ok {
					if it.Freed {
						return nil, fmt.Errorf("trace: double free of item %d", ev.Item)
					}
					it.Freed = true
					it.FreeAt = ev.At
				}
			case EvIter:
				iters = append(iters, iterRec{compute: ev.Compute, produced: ev.Items})
			case EvEmit:
				emits = append(emits, emitRec{at: ev.At, items: ev.Items})
			}
		}
	}

	// Pass 2: success marking. Base: every item consumed by an emitted
	// output. Propagate backwards through provenance: if a derived item
	// is successful, the inputs that fed it are too.
	var stack []ItemID
	mark := func(id ItemID) {
		if it, ok := a.Items[id]; ok && !it.Successful {
			it.Successful = true
			stack = append(stack, id)
		}
	}
	for _, e := range emits {
		for _, id := range e.items {
			mark(id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range a.Items[id].Inputs {
			mark(in)
		}
	}

	a.ItemsTotal = len(slab)
	for i := range slab {
		if slab[i].Successful {
			a.ItemsSuccessful++
		}
	}
	a.ItemsWasted = a.ItemsTotal - a.ItemsSuccessful

	// Pass 3: footprint step series (all, wasted-only, IGC).
	a.All = buildFootprint(slab, opt, func(it *ItemInfo) (bool, time.Duration, time.Duration) {
		return true, it.AllocAt, it.FreeAt
	})
	a.Wasted = buildFootprint(slab, opt, func(it *ItemInfo) (bool, time.Duration, time.Duration) {
		return !it.Successful, it.AllocAt, it.FreeAt
	})
	a.IGC = buildFootprint(slab, opt, func(it *ItemInfo) (bool, time.Duration, time.Duration) {
		if !it.Successful {
			return false, 0, 0
		}
		last := it.LastGetAt
		if last < it.AllocAt {
			last = it.AllocAt
		}
		return true, it.AllocAt, last
	})
	if a.All.IntegralByteSec > 0 {
		a.WastedMemPct = 100 * a.Wasted.IntegralByteSec / a.All.IntegralByteSec
	}

	// Pass 4: computation accounting. An iteration's work is wasted when
	// it produced items and none of them (transitively) mattered.
	for _, it := range iters {
		a.TotalCompute += it.compute
		if len(it.produced) == 0 {
			continue // sink/bookkeeping iteration: work served consumed items
		}
		wasted := true
		for _, id := range it.produced {
			if info, ok := a.Items[id]; ok && info.Successful {
				wasted = false
				break
			}
		}
		if wasted {
			a.WastedCompute += it.compute
		}
	}
	if a.TotalCompute > 0 {
		a.WastedCompPct = 100 * float64(a.WastedCompute) / float64(a.TotalCompute)
	}

	// Pass 5: outputs, latency, throughput, jitter (window-clipped).
	rootMemo := make(map[ItemID]time.Duration)
	var rootAlloc func(id ItemID) time.Duration
	rootAlloc = func(id ItemID) time.Duration {
		if t, ok := rootMemo[id]; ok {
			return t
		}
		it, ok := a.Items[id]
		if !ok {
			return -1
		}
		best := it.AllocAt
		for _, in := range it.Inputs {
			if t := rootAlloc(in); t >= 0 && t < best {
				best = t
			}
		}
		rootMemo[id] = best
		return best
	}
	sort.Slice(emits, func(i, j int) bool { return emits[i].at < emits[j].at })
	for _, e := range emits {
		if e.at < opt.From || e.at >= opt.To {
			continue
		}
		a.Outputs++
		a.OutputTimes = append(a.OutputTimes, e.at)
		var root time.Duration = -1
		for _, id := range e.items {
			if t := rootAlloc(id); t >= 0 && (root < 0 || t < root) {
				root = t
			}
		}
		if root >= 0 {
			a.Latencies = append(a.Latencies, e.at-root)
		}
	}
	a.ThroughputFPS = stats.Throughput(a.Outputs, opt.To-opt.From)
	a.LatencyMean, a.LatencyStd = stats.DurationStats(a.Latencies)
	if len(a.Latencies) > 0 {
		samples := make([]float64, len(a.Latencies))
		for i, d := range a.Latencies {
			samples[i] = float64(d)
		}
		a.LatencyP50 = time.Duration(stats.Quantile(samples, 0.50))
		a.LatencyP95 = time.Duration(stats.Quantile(samples, 0.95))
		a.LatencyP99 = time.Duration(stats.Quantile(samples, 0.99))
	}
	a.Jitter = stats.Jitter(a.OutputTimes)

	return a, nil
}

// delta is one step of an occupancy series: d bytes arrive (d > 0) or
// leave (d < 0) at time at.
type delta struct {
	at time.Duration
	d  int64
}

func deltaAt(x, y delta) int { return cmp.Compare(x.at, y.at) }

// buildFootprint constructs one occupancy step series over the window.
// include returns whether an item participates and its live interval.
func buildFootprint(items []ItemInfo, opt AnalyzeOptions,
	include func(*ItemInfo) (bool, time.Duration, time.Duration)) Footprint {

	// Arrivals are gathered in allocation order, which a time-ordered
	// trace has already sorted, so sorting the two lists apart leaves the
	// real work to the departures alone; a merge then visits every step
	// in time order.
	ups := make([]delta, 0, len(items))
	downs := make([]delta, 0, len(items))
	for i := range items {
		it := &items[i]
		ok, lo, hi := include(it)
		if !ok || hi <= lo {
			continue
		}
		ups = append(ups, delta{at: lo, d: it.Size})
		downs = append(downs, delta{at: hi, d: -it.Size})
	}
	slices.SortFunc(ups, deltaAt)
	slices.SortFunc(downs, deltaAt)

	series := stats.NewStepSeries()
	series.Record(0, 0)
	// Ties may be merged in any order: Record keeps the last level
	// written at an instant, which is the same sum whatever order
	// produced it.
	var level int64
	for len(ups)+len(downs) > 0 {
		var d delta
		if len(downs) == 0 || len(ups) > 0 && ups[0].at <= downs[0].at {
			d, ups = ups[0], ups[1:]
		} else {
			d, downs = downs[0], downs[1:]
		}
		level += d.d
		series.Record(d.at, float64(level))
	}

	mean, std := series.TimeWeighted(opt.From, opt.To)
	return Footprint{
		MeanBytes:       mean,
		StdBytes:        std,
		PeakBytes:       series.Peak(opt.From, opt.To),
		IntegralByteSec: series.Integral(opt.From, opt.To) / float64(time.Second),
		Series:          series,
	}
}
