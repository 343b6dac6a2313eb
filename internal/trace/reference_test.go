package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// The reference oracle: the postmortem pass as a direct reading of §4 —
// a map from id to lifecycle, and each footprint series built from its
// sorted steps up and down and summarized by TimeWeighted, Peak and
// Integral. Analyze must agree with it on every field and every series
// point.

// Exported to the external test package.
var (
	ReferenceAnalyze = referenceAnalyze
	DiffAnalyses     = diffAnalyses
)

// referenceAnalyze analyses an explicit event list. Its Items are in
// allocation order, like Analyze's.
func referenceAnalyze(events []Event, opt AnalyzeOptions) (*Analysis, error) {
	end := opt.To
	allocs := 0
	for i := range events {
		ev := &events[i]
		if ev.At > end {
			end = ev.At
		}
		if ev.Kind == EvAlloc {
			allocs++
		}
	}
	if opt.To == 0 {
		opt.To = end + 1
	}
	if opt.To <= opt.From {
		return nil, fmt.Errorf("trace: empty analysis window [%v, %v)", opt.From, opt.To)
	}

	a := &Analysis{From: opt.From, To: opt.To}
	byID := make(map[ItemID]*ItemInfo, allocs)
	slab := make([]ItemInfo, 0, allocs)

	type iterRec struct {
		compute  time.Duration
		produced []ItemID
	}
	var iters []iterRec
	type emitRec struct {
		at    time.Duration
		items []ItemID
	}
	var emits []emitRec

	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case EvAlloc:
			if _, dup := byID[ev.Item]; dup {
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
			byID[ev.Item] = &slab[len(slab)-1]
		case EvGet:
			if it, ok := byID[ev.Item]; ok {
				it.Gets++
				if ev.At > it.LastGetAt {
					it.LastGetAt = ev.At
				}
				a.Gets++
			}
		case EvSkip:
			if it, ok := byID[ev.Item]; ok {
				it.Skips++
				a.Skips++
			}
		case EvFree:
			if it, ok := byID[ev.Item]; ok {
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

	var stack []ItemID
	mark := func(id ItemID) {
		if it, ok := byID[id]; ok && !it.Successful {
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
		for _, in := range byID[id].Inputs {
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

	a.All = referenceFootprint(slab, opt, func(it *ItemInfo) (bool, time.Duration, time.Duration) {
		return true, it.AllocAt, it.FreeAt
	})
	a.Wasted = referenceFootprint(slab, opt, func(it *ItemInfo) (bool, time.Duration, time.Duration) {
		return !it.Successful, it.AllocAt, it.FreeAt
	})
	a.IGC = referenceFootprint(slab, opt, func(it *ItemInfo) (bool, time.Duration, time.Duration) {
		if !it.Successful {
			return false, 0, 0
		}
		return true, it.AllocAt, max(it.LastGetAt, it.AllocAt)
	})
	if a.All.IntegralByteSec > 0 {
		a.WastedMemPct = 100 * a.Wasted.IntegralByteSec / a.All.IntegralByteSec
	}

	for _, it := range iters {
		a.TotalCompute += it.compute
		if len(it.produced) == 0 {
			continue
		}
		wasted := true
		for _, id := range it.produced {
			if info, ok := byID[id]; ok && info.Successful {
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

	rootMemo := make(map[ItemID]time.Duration)
	var rootAlloc func(id ItemID) time.Duration
	rootAlloc = func(id ItemID) time.Duration {
		if t, ok := rootMemo[id]; ok {
			return t
		}
		it, ok := byID[id]
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
	a.Items = slab
	return a, nil
}

// referenceFootprint builds one occupancy series from its steps, sorted
// by time, and summarizes it over the window. include returns whether
// an item participates and its live interval.
func referenceFootprint(items []ItemInfo, opt AnalyzeOptions,
	include func(*ItemInfo) (bool, time.Duration, time.Duration)) Footprint {
	type delta struct {
		at time.Duration
		d  int64
	}
	byAt := func(x, y delta) int { return cmp.Compare(x.at, y.at) }
	var ups, downs []delta
	for i := range items {
		it := &items[i]
		ok, lo, hi := include(it)
		if !ok || hi <= lo {
			continue
		}
		ups = append(ups, delta{at: lo, d: it.Size})
		downs = append(downs, delta{at: hi, d: -it.Size})
	}
	slices.SortFunc(ups, byAt)
	slices.SortFunc(downs, byAt)

	series := stats.NewStepSeries()
	series.Record(0, 0)
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

// diffAnalyses lists every difference between two analyses: each scalar
// bit for bit, each list, each series point and each item, and Item's
// lookup of each item in got. An item's Inputs compare as lists, so a
// nil and an empty one agree.
func diffAnalyses(got, want *Analysis) []string {
	var diffs []string
	if (got == nil) != (want == nil) {
		return []string{fmt.Sprintf("analysis %v, want %v", got, want)}
	}
	if got == nil {
		return nil
	}
	scalars := func(a *Analysis) string {
		s := *a
		s.All.Series, s.Wasted.Series, s.IGC.Series = nil, nil, nil
		s.Items, s.index = nil, itemIndex{}
		return fmt.Sprintf("%#v", s)
	}
	if g, w := scalars(got), scalars(want); g != w {
		diffs = append(diffs, fmt.Sprintf("fields differ:\n got %s\nwant %s", g, w))
	}
	for _, fp := range []struct {
		name      string
		got, want *stats.StepSeries
	}{{"All", got.All.Series, want.All.Series}, {"Wasted", got.Wasted.Series, want.Wasted.Series}, {"IGC", got.IGC.Series, want.IGC.Series}} {
		if fp.got.Len() != fp.want.Len() {
			diffs = append(diffs, fmt.Sprintf("%s series: %d points, want %d", fp.name, fp.got.Len(), fp.want.Len()))
			continue
		}
		for i := 0; i < fp.got.Len(); i++ {
			gt, gv := fp.got.Point(i)
			wt, wv := fp.want.Point(i)
			if gt != wt || math.Float64bits(gv) != math.Float64bits(wv) {
				diffs = append(diffs, fmt.Sprintf("%s series point %d: (%v, %v), want (%v, %v)", fp.name, i, gt, gv, wt, wv))
				break
			}
		}
	}
	if len(got.Items) != len(want.Items) {
		return append(diffs, fmt.Sprintf("%d items, want %d", len(got.Items), len(want.Items)))
	}
	for i := range want.Items {
		g, w := got.Items[i], want.Items[i]
		if !slices.Equal(g.Inputs, w.Inputs) {
			diffs = append(diffs, fmt.Sprintf("item %d: inputs %v, want %v", w.ID, g.Inputs, w.Inputs))
		}
		g.Inputs, w.Inputs = nil, nil
		if !reflect.DeepEqual(g, w) {
			diffs = append(diffs, fmt.Sprintf("item %d: %+v, want %+v", w.ID, g, w))
		}
		if p := got.Item(w.ID); p != &got.Items[i] {
			diffs = append(diffs, fmt.Sprintf("Item(%d) = %p, want item %d at %p", w.ID, p, i, &got.Items[i]))
		}
		if len(diffs) > 10 {
			break
		}
	}
	return diffs
}

// checkReference analyses events with Analyze, through a recorder, and
// with AnalyzeEvents, and asserts that both agree with the reference,
// errors included.
func checkReference(t *testing.T, name string, events []Event, opt AnalyzeOptions) {
	t.Helper()
	want, wantErr := referenceAnalyze(events, opt)
	r := NewRecorder()
	for _, ev := range events {
		r.Append(ev)
	}
	for _, via := range []struct {
		name    string
		analyze func() (*Analysis, error)
	}{
		{"Analyze", func() (*Analysis, error) { return Analyze(r, opt) }},
		{"AnalyzeEvents", func() (*Analysis, error) { return AnalyzeEvents(events, opt) }},
	} {
		got, err := via.analyze()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s %+v %s: error %v, want %v", name, opt, via.name, err, wantErr)
			continue
		}
		for _, d := range diffAnalyses(got, want) {
			t.Errorf("%s %+v %s: %s", name, opt, via.name, d)
		}
	}
}

// randomTrace fabricates a pipeline-like trace that reaches every corner
// of the pass: sparse and huge ids, zero-length lives, an alloc and a
// free at one instant, several gets at the last-get instant, gets, skips
// and frees of unknown items, provenance through unknown items, equal
// emit times, and, when shuffled, appends out of time order. Times are
// whole milliseconds in a short span, so instants are often shared.
func randomTrace(rng *rand.Rand) []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var id func(k int) ItemID
	switch rng.Intn(4) {
	case 0: // as NewItemID hands them out
		id = func(k int) ItemID { return ItemID(k + 1) }
	case 1: // offset, with gaps
		id = func(k int) ItemID { return ItemID(1000 + 3*k) }
	case 2: // huge and sparse
		id = func(k int) ItemID { return ItemID(1<<50 + k*(1<<20)) }
	default: // dense, in a scrambled order
		perm := rng.Perm(1000)
		id = func(k int) ItemID { return ItemID(perm[k] + 1) }
	}
	unknown := func() ItemID { return ItemID(-1 - rng.Intn(5)) }

	items := 1 + rng.Intn(80)
	var evs []Event
	for k := 0; k < items; k++ {
		at := rng.Intn(100)
		var inputs []ItemID
		for j := rng.Intn(3); j > 0 && k > 0; j-- {
			inputs = append(inputs, id(rng.Intn(k)))
		}
		if rng.Intn(10) == 0 {
			inputs = append(inputs, unknown())
		}
		evs = append(evs, Event{
			Kind: EvAlloc, At: ms(at), Item: id(k), Node: 1, Thread: 2,
			TS: 7, Size: int64(rng.Intn(100)), Items: inputs, // some of size 0
		})
		evs = append(evs, Event{Kind: EvIter, At: ms(at), Thread: 2, Compute: ms(1 + rng.Intn(5)), Items: []ItemID{id(k)}})
		last := at
		for g := rng.Intn(4); g > 0; g-- {
			switch rng.Intn(3) {
			case 0: // at the alloc instant
			case 1: // at the latest get so far
				at = last
			default:
				at += rng.Intn(20)
			}
			last = max(last, at)
			evs = append(evs, Event{Kind: EvGet, At: ms(at), Item: id(k), Node: 1, Thread: 3})
		}
		if rng.Intn(4) == 0 {
			evs = append(evs, Event{Kind: EvSkip, At: ms(last), Item: id(k), Node: 1, Thread: 3})
		}
		if rng.Intn(5) > 0 { // some items are never freed
			free := last + rng.Intn(3)*rng.Intn(10) // often at the last get, or the alloc
			evs = append(evs, Event{Kind: EvFree, At: ms(free), Item: id(k), Node: 1})
		}
		if rng.Intn(3) == 0 {
			used := []ItemID{id(k)}
			if rng.Intn(4) == 0 {
				used = append(used, unknown())
			}
			at := last + rng.Intn(10)
			if rng.Intn(3) == 0 {
				at = 100 // equal emit times
			}
			evs = append(evs,
				Event{Kind: EvEmit, At: ms(at), Thread: 4, Items: used},
				Event{Kind: EvIter, At: ms(at), Thread: 4, Compute: ms(1)})
		}
	}
	for u := rng.Intn(4); u > 0; u-- {
		kind := []EventKind{EvGet, EvSkip, EvFree}[rng.Intn(3)]
		evs = append(evs, Event{Kind: kind, At: ms(rng.Intn(120)), Item: unknown(), Node: 1})
	}
	// An iteration whose output was never recorded.
	evs = append(evs, Event{Kind: EvIter, At: ms(rng.Intn(100)), Thread: 2, Compute: ms(2), Items: []ItemID{unknown()}})

	switch rng.Intn(3) {
	case 0: // in time order, as on the virtual clock
		slices.SortStableFunc(evs, func(x, y Event) int { return cmp.Compare(x.At, y.At) })
	case 1: // in time order but for local swaps, as on a wall clock
		slices.SortStableFunc(evs, func(x, y Event) int { return cmp.Compare(x.At, y.At) })
		for s := rng.Intn(len(evs)); s > 0; s-- {
			i := rng.Intn(len(evs) - 1)
			evs[i], evs[i+1] = evs[i+1], evs[i]
		}
	default: // fully scrambled: frees and gets may precede their allocs
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	}
	return evs
}

// TestAnalyzeMatchesReferenceRandom runs the pass and the reference over
// seeded random traces and windows.
func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for trial := 0; trial < 400; trial++ {
		evs := randomTrace(rng)
		name := fmt.Sprintf("trace %d", trial)
		checkReference(t, name, evs, AnalyzeOptions{})
		from := ms(rng.Intn(60))
		checkReference(t, name, evs, AnalyzeOptions{From: from, To: from + ms(1+rng.Intn(80))})
		if t.Failed() {
			t.Fatalf("trace %d: %d events", trial, len(evs))
		}
	}
}

// TestAnalyzeMatchesReferenceErrors checks that the pass fails where the
// reference fails, with the same error.
func TestAnalyzeMatchesReferenceErrors(t *testing.T) {
	dup := []Event{
		{Kind: EvAlloc, Item: 1, Size: 1},
		{Kind: EvFree, Item: 1, At: sec(1)},
		{Kind: EvAlloc, Item: 1, Size: 1, At: sec(2)},
	}
	double := []Event{
		{Kind: EvAlloc, Item: 1 << 40, Size: 1},
		{Kind: EvFree, Item: 1 << 40, At: sec(2)},
		{Kind: EvFree, Item: 1 << 40, At: sec(1)},
	}
	for _, c := range []struct {
		name   string
		events []Event
		opt    AnalyzeOptions
	}{
		{"duplicate alloc", dup, AnalyzeOptions{}},
		{"duplicate sparse alloc", []Event{{Kind: EvAlloc, Item: 5}, {Kind: EvAlloc, Item: -5}, {Kind: EvAlloc, Item: -5}}, AnalyzeOptions{}},
		{"double free", double, AnalyzeOptions{}},
		{"double free in a window", double, AnalyzeOptions{From: sec(5), To: sec(6)}},
		{"empty window", buildPipelineTrace(), AnalyzeOptions{From: sec(3), To: sec(3)}},
		{"window after the trace", buildPipelineTrace(), AnalyzeOptions{From: sec(9)}},
		{"empty window over a duplicate", dup, AnalyzeOptions{From: sec(5), To: sec(1)}},
		{"no events, no window", nil, AnalyzeOptions{From: sec(1)}},
	} {
		if _, err := referenceAnalyze(c.events, c.opt); err == nil {
			t.Fatalf("%s: the reference accepts the trace", c.name)
		}
		checkReference(t, c.name, c.events, c.opt)
	}
}
