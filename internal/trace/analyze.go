package trace

import (
	"cmp"
	"fmt"
	"math"
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

	// Items holds every item's reconstructed lifecycle, in allocation
	// order; Item finds one by id.
	Items []ItemInfo
	index itemIndex
}

// Item returns the lifecycle of item id, or nil if the trace holds no
// alloc for it.
func (a *Analysis) Item(id ItemID) *ItemInfo {
	if i := a.index.lookup(id); i >= 0 {
		return &a.Items[i]
	}
	return nil
}

// itemIndex maps an item id to its place in Analysis.Items. Ids from
// NewItemID are dense, so a table indexed by id − base holds them; an id
// outside the table, as in a hand-built or foreign trace with sparse
// ids, falls back to a map.
type itemIndex struct {
	base   ItemID
	dense  []int32 // place + 1; 0 is absent
	sparse map[ItemID]int
}

// lookup returns the place of id, or -1.
func (x *itemIndex) lookup(id ItemID) int {
	if d := uint64(id - x.base); d < uint64(len(x.dense)) {
		return int(x.dense[d]) - 1
	}
	if i, ok := x.sparse[id]; ok {
		return i
	}
	return -1
}

// insert records that id is at place i.
func (x *itemIndex) insert(id ItemID, i int) {
	if d := uint64(id - x.base); d < uint64(len(x.dense)) {
		x.dense[d] = int32(i + 1)
		return
	}
	if x.sparse == nil {
		x.sparse = make(map[ItemID]int)
	}
	x.sparse[id] = i
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
	l := r.snapshot()
	return analyze(&l, opt)
}

// AnalyzeEvents runs the postmortem analysis over an explicit event list.
// An item's Inputs are a copy of its alloc's Items, nil when empty.
func AnalyzeEvents(events []Event, opt AnalyzeOptions) (*Analysis, error) {
	l := packEvents(events)
	return analyze(&l, opt)
}

// analyze is the postmortem pass over a log, in two in-order scans. Scan
// 1 reconstructs item lifecycles into a dense table and gathers the
// outputs; success marking follows provenance over the table. Scan 2
// sweeps the log in time order and steps the footprint series at the
// events that cause the steps, and totals the computation.
func analyze(l *eventLog, opt AnalyzeOptions) (*Analysis, error) {
	end := opt.To
	if l.n > 0 {
		end = max(end, l.end)
	}
	if opt.To == 0 {
		// Default window covers every event; +1ns keeps the half-open
		// interval from excluding events at exactly the last instant.
		opt.To = end + 1
	}
	if opt.To <= opt.From {
		return nil, fmt.Errorf("trace: empty analysis window [%v, %v)", opt.From, opt.To)
	}

	a := &Analysis{From: opt.From, To: opt.To, Items: make([]ItemInfo, 0, l.allocs)}
	items := a.Items
	// The log positions of the free and the last get that ended each
	// item's live intervals, so scan 2 knows which event steps.
	type ends struct{ free, lastGet int }
	pos := make([]ends, 0, l.allocs)

	// Scan 1: item lifecycles, in log order, and the outputs.
	type emitRec struct {
		at    time.Duration
		items []ItemID
	}
	var emits []emitRec
	for p := 0; p < l.n; p++ {
		ev := l.at(p)
		switch ev.kind {
		case EvAlloc:
			if len(items) == 0 {
				// Ids from NewItemID run from the first alloc's up; the
				// slack absorbs ids minted but never recorded.
				a.index = itemIndex{base: ev.item, dense: make([]int32, 2*l.allocs+64)}
			} else if a.index.lookup(ev.item) >= 0 {
				return nil, fmt.Errorf("trace: duplicate alloc for item %d", ev.item)
			}
			a.index.insert(ev.item, len(items))
			// The slab holds every alloc: fill the next entry in place.
			items = items[:len(items)+1]
			it := &items[len(items)-1]
			it.ID, it.Node, it.Producer = ev.item, ev.node, ev.thread
			it.TS, it.Size = vt.Timestamp(ev.w0), ev.w1
			it.AllocAt, it.FreeAt = ev.at, end
			it.Inputs = l.items(ev)
			pos = append(pos, ends{-1, -1})
		case EvGet:
			if i := a.index.lookup(ev.item); i >= 0 {
				it := &items[i]
				it.Gets++
				if ev.at > it.LastGetAt {
					it.LastGetAt = ev.at
					pos[i].lastGet = p
				}
				a.Gets++
			}
		case EvSkip:
			if i := a.index.lookup(ev.item); i >= 0 {
				items[i].Skips++
				a.Skips++
			}
		case EvFree:
			if i := a.index.lookup(ev.item); i >= 0 {
				it := &items[i]
				if it.Freed {
					return nil, fmt.Errorf("trace: double free of item %d", ev.item)
				}
				it.Freed = true
				it.FreeAt = ev.at
				pos[i].free = p
			}
		case EvEmit:
			emits = append(emits, emitRec{at: ev.at, items: l.items(ev)})
		}
	}
	a.Items = items

	// Success marking. Base: every item consumed by an emitted output.
	// Propagate backwards through provenance: if a derived item is
	// successful, the inputs that fed it are too.
	var stack []int
	mark := func(id ItemID) {
		if i := a.index.lookup(id); i >= 0 && !items[i].Successful {
			items[i].Successful = true
			stack = append(stack, i)
		}
	}
	for _, e := range emits {
		for _, id := range e.items {
			mark(id)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range items[i].Inputs {
			mark(in)
		}
	}

	// Count each footprint series' steps. An item steps a series only
	// when its live interval there is not empty; IGC keeps successful
	// items live from allocation to their last get.
	var all, wasted, igc stepper
	for i := range items {
		it := &items[i]
		if it.Successful {
			a.ItemsSuccessful++
			if it.LastGetAt > it.AllocAt {
				igc.live(it.Size, false)
			}
		}
		if it.FreeAt > it.AllocAt {
			all.live(it.Size, !it.Freed)
			if !it.Successful {
				wasted.live(it.Size, !it.Freed)
			}
		}
	}
	a.ItemsTotal = len(items)
	a.ItemsWasted = a.ItemsTotal - a.ItemsSuccessful
	all.init()
	wasted.init()
	igc.init()

	// Scan 2: the footprint steps in time order, and the computation. A
	// log appended out of time order, as on a wall clock, is swept
	// through a stable permutation ordered by time.
	var order []int
	if l.disordered {
		order = make([]int, l.n)
		for p := range order {
			order[p] = p
		}
		slices.SortFunc(order, func(x, y int) int {
			if c := cmp.Compare(l.at(x).at, l.at(y).at); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	for k := 0; k < l.n; k++ {
		p := k
		if order != nil {
			p = order[k]
		}
		ev := l.at(p)
		switch ev.kind {
		case EvAlloc:
			it := &items[a.index.lookup(ev.item)]
			if it.FreeAt > it.AllocAt {
				all.step(ev.at, it.Size)
				if !it.Successful {
					wasted.step(ev.at, it.Size)
				}
			}
			if it.Successful && it.LastGetAt > it.AllocAt {
				igc.step(ev.at, it.Size)
			}
		case EvFree:
			if i := a.index.lookup(ev.item); i >= 0 && pos[i].free == p {
				if it := &items[i]; it.FreeAt > it.AllocAt {
					all.step(ev.at, -it.Size)
					if !it.Successful {
						wasted.step(ev.at, -it.Size)
					}
				}
			}
		case EvGet:
			if i := a.index.lookup(ev.item); i >= 0 && pos[i].lastGet == p {
				if it := &items[i]; it.Successful && it.LastGetAt > it.AllocAt {
					igc.step(ev.at, -it.Size)
				}
			}
		case EvIter:
			// An iteration's work is wasted when it produced items and
			// none of them (transitively) mattered; a sink or bookkeeping
			// iteration's served the items it consumed.
			compute := time.Duration(ev.w0)
			a.TotalCompute += compute
			produced := l.items(ev)
			dropped := len(produced) > 0
			for _, id := range produced {
				if i := a.index.lookup(id); i >= 0 && items[i].Successful {
					dropped = false
					break
				}
			}
			if dropped {
				a.WastedCompute += compute
			}
		}
	}
	all.finish(end)
	wasted.finish(end)
	a.All = all.footprint(opt)
	a.Wasted = wasted.footprint(opt)
	a.IGC = igc.footprint(opt)
	if a.All.IntegralByteSec > 0 {
		a.WastedMemPct = 100 * a.Wasted.IntegralByteSec / a.All.IntegralByteSec
	}
	if a.TotalCompute > 0 {
		a.WastedCompPct = 100 * float64(a.WastedCompute) / float64(a.TotalCompute)
	}

	// Outputs, latency, throughput, jitter (window-clipped). An output's
	// latency runs from the allocation of the earliest item in its
	// provenance.
	const unset = time.Duration(math.MinInt64)
	var roots []time.Duration
	var rootAlloc func(id ItemID) time.Duration
	rootAlloc = func(id ItemID) time.Duration {
		i := a.index.lookup(id)
		if i < 0 {
			return -1
		}
		if roots[i] != unset {
			return roots[i]
		}
		best := items[i].AllocAt
		for _, in := range items[i].Inputs {
			if t := rootAlloc(in); t >= 0 && t < best {
				best = t
			}
		}
		roots[i] = best
		return best
	}
	sort.Slice(emits, func(i, j int) bool { return emits[i].at < emits[j].at })
	for _, e := range emits {
		if e.at < opt.From || e.at >= opt.To {
			continue
		}
		if roots == nil {
			roots = make([]time.Duration, len(items))
			for i := range roots {
				roots[i] = unset
			}
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
		q := stats.Quantiles(samples, 0.50, 0.95, 0.99)
		a.LatencyP50, a.LatencyP95, a.LatencyP99 = time.Duration(q[0]), time.Duration(q[1]), time.Duration(q[2])
	}
	a.Jitter = stats.Jitter(a.OutputTimes)

	return a, nil
}

// stepper builds one occupancy step series in time order. The level at
// an instant is an integer sum, so the steps at one instant may come in
// any order: Record keeps the last level written there.
type stepper struct {
	series *stats.StepSeries
	level  int64
	steps  int
	// ends and endBytes count and sum the steps down at end, of the
	// items never freed.
	ends     int
	endBytes int64
}

// live counts an item's two steps; toEnd says it steps down at end.
func (s *stepper) live(size int64, toEnd bool) {
	s.steps += 2
	if toEnd {
		s.ends++
		s.endBytes += size
	}
}

// init starts the series at 0 with room for every step.
func (s *stepper) init() {
	s.series = stats.NewStepSeries()
	s.series.Grow(s.steps + 1)
	s.series.Record(0, 0)
}

// step moves the level by d bytes at time t.
func (s *stepper) step(t time.Duration, d int64) {
	s.level += d
	s.series.Record(t, float64(s.level))
}

// finish takes the steps down at end together: Record keeps one point
// an instant.
func (s *stepper) finish(end time.Duration) {
	if s.ends > 0 {
		s.step(end, -s.endBytes)
	}
}

// footprint summarizes the series over the analysis window.
func (s *stepper) footprint(opt AnalyzeOptions) Footprint {
	m := s.series.Summary(opt.From, opt.To)
	return Footprint{
		MeanBytes:       m.Mean,
		StdBytes:        m.Std,
		PeakBytes:       m.Peak,
		IntegralByteSec: m.Integral / float64(time.Second),
		Series:          s.series,
	}
}
