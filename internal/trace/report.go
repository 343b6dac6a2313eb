package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/graph"
)

// ThreadReport summarizes one thread's execution over the analysis
// window, reconstructed from its EvIter records.
type ThreadReport struct {
	Thread graph.NodeID
	// Iterations is the number of completed loop iterations.
	Iterations int
	// Period is the mean time between iterations (window / iterations).
	Period time.Duration
	// Compute and Blocked are mean per-iteration times.
	Compute, Blocked time.Duration
	// Utilization is compute ÷ period: the fraction of the thread's
	// period spent doing work rather than waiting or pacing.
	Utilization float64
	// Produced counts items the thread created in the window.
	Produced int
}

// ChannelReport summarizes one buffer's traffic over the window.
type ChannelReport struct {
	Node graph.NodeID
	// Allocs/Gets/Skips/Frees count the item events in the window.
	Allocs, Gets, Skips, Frees int
	// BytesAllocated sums allocated item sizes.
	BytesAllocated int64
	// WastedItems counts allocated items classified unsuccessful.
	WastedItems int
	// MeanResidency is the mean alloc→free lifetime of items allocated
	// in the window.
	MeanResidency time.Duration
}

// Report is the structured drill-down companion to Analysis.
type Report struct {
	Threads  map[graph.NodeID]*ThreadReport
	Channels map[graph.NodeID]*ChannelReport
}

// BuildReport derives per-thread and per-channel summaries from raw
// events, using an Analysis for the window and item classifications.
func BuildReport(events []Event, a *Analysis) *Report {
	rep := &Report{
		Threads:  make(map[graph.NodeID]*ThreadReport),
		Channels: make(map[graph.NodeID]*ChannelReport),
	}
	window := a.To - a.From
	thread := func(id graph.NodeID) *ThreadReport {
		tr := rep.Threads[id]
		if tr == nil {
			tr = &ThreadReport{Thread: id}
			rep.Threads[id] = tr
		}
		return tr
	}
	ch := func(id graph.NodeID) *ChannelReport {
		cr := rep.Channels[id]
		if cr == nil {
			cr = &ChannelReport{Node: id}
			rep.Channels[id] = cr
		}
		return cr
	}
	var residency = map[graph.NodeID]*struct {
		total time.Duration
		n     int
	}{}

	for _, ev := range events {
		if ev.At < a.From || ev.At >= a.To {
			continue
		}
		switch ev.Kind {
		case EvIter:
			tr := thread(ev.Thread)
			tr.Iterations++
			tr.Compute += ev.Compute
			tr.Blocked += ev.Blocked
			tr.Produced += len(ev.Items)
		case EvAlloc:
			cr := ch(ev.Node)
			cr.Allocs++
			cr.BytesAllocated += ev.Size
			if info := a.Item(ev.Item); info != nil {
				if !info.Successful {
					cr.WastedItems++
				}
				r := residency[ev.Node]
				if r == nil {
					r = &struct {
						total time.Duration
						n     int
					}{}
					residency[ev.Node] = r
				}
				r.total += info.FreeAt - info.AllocAt
				r.n++
			}
		case EvGet:
			ch(ev.Node).Gets++
		case EvSkip:
			ch(ev.Node).Skips++
		case EvFree:
			ch(ev.Node).Frees++
		}
	}

	for _, tr := range rep.Threads {
		if tr.Iterations > 0 {
			tr.Period = window / time.Duration(tr.Iterations)
			tr.Compute /= time.Duration(tr.Iterations)
			tr.Blocked /= time.Duration(tr.Iterations)
			if tr.Period > 0 {
				tr.Utilization = float64(tr.Compute) / float64(tr.Period)
			}
		}
	}
	for id, r := range residency {
		if r.n > 0 {
			rep.Channels[id].MeanResidency = r.total / time.Duration(r.n)
		}
	}
	return rep
}

// WriteThreads renders the thread table, resolving names through g (nil
// g prints bare ids).
func (r *Report) WriteThreads(w io.Writer, g *graph.Graph) {
	r.WriteThreadsNamed(w, GraphNames(g))
}

// WriteThreadsNamed renders the thread table with an explicit name table
// (from a persisted trace; nil prints bare ids).
func (r *Report) WriteThreadsNamed(w io.Writer, names map[graph.NodeID]string) {
	fmt.Fprintf(w, "%-18s %8s %10s %10s %10s %6s %9s\n",
		"thread", "iters", "period", "compute", "blocked", "util", "produced")
	for _, id := range sortedThreadIDs(r) {
		tr := r.Threads[id]
		fmt.Fprintf(w, "%-18s %8d %10v %10v %10v %5.0f%% %9d\n",
			nodeName(names, id), tr.Iterations,
			tr.Period.Round(time.Millisecond),
			tr.Compute.Round(time.Millisecond),
			tr.Blocked.Round(time.Millisecond),
			tr.Utilization*100, tr.Produced)
	}
}

// WriteChannels renders the channel table.
func (r *Report) WriteChannels(w io.Writer, g *graph.Graph) {
	r.WriteChannelsNamed(w, GraphNames(g))
}

// WriteChannelsNamed renders the channel table with an explicit name
// table.
func (r *Report) WriteChannelsNamed(w io.Writer, names map[graph.NodeID]string) {
	fmt.Fprintf(w, "%-18s %8s %8s %8s %8s %8s %12s %11s\n",
		"channel", "allocs", "gets", "skips", "frees", "wasted", "bytes", "residency")
	ids := make([]graph.NodeID, 0, len(r.Channels))
	for id := range r.Channels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cr := r.Channels[id]
		fmt.Fprintf(w, "%-18s %8d %8d %8d %8d %8d %12d %11v\n",
			nodeName(names, id), cr.Allocs, cr.Gets, cr.Skips, cr.Frees,
			cr.WastedItems, cr.BytesAllocated,
			cr.MeanResidency.Round(time.Millisecond))
	}
}

func sortedThreadIDs(r *Report) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(r.Threads))
	for id := range r.Threads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func nodeName(names map[graph.NodeID]string, id graph.NodeID) string {
	if name, ok := names[id]; ok && name != "" {
		return name
	}
	return fmt.Sprintf("node-%d", id)
}
