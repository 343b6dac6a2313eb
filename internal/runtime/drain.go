// Graceful drain: the phased, topologically-ordered shutdown that
// flushes in-flight work instead of discarding it.
//
// Stop is abrupt by design — it closes every buffer at once and whatever
// was queued is shed. Drain is the polite counterpart: sources are
// quiesced first (their Ctx rejects new puts with ErrDraining), then a
// seal wave walks the dataflow — each buffer is sealed the moment every
// producer thread feeding it has exited, and a sealed buffer keeps
// serving gets until its backlog is flushed, at which point consumers
// observe ErrClosed and exit, letting the wave advance downstream. The
// wave needs no explicit topological sort: "seal when all producers
// exited" cascades from sources to sinks on any DAG. A deadline bounds
// the whole affair; when it expires the remaining items are counted as
// explicitly shed (never silently lost), so the conservation invariant
//
//	produced == delivered + explicitly shed
//
// holds on every path out of a drain. cmd/soak asserts it under chaos.
package runtime

import (
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/graph"
)

// ErrDraining reports a put rejected because the runtime (or the target
// buffer) is draining: sources have been quiesced and no new work is
// admitted. Thread bodies should return it (or the error wrapping it);
// the supervisor treats it as a clean exit, exactly like ErrShutdown.
var ErrDraining = buffer.ErrDraining

// drainPollEvery is the seal wave's poll interval. On the discrete-event
// virtual clock it is exact, so a drain is bit-reproducible: the same
// seed yields byte-identical drained/shed counts.
const drainPollEvery = time.Millisecond

// BufferDrain is one buffer's drain accounting in a DrainReport.
type BufferDrain struct {
	// Name is the buffer's system-wide name.
	Name string
	// Drained counts items delivered to a consumer after the buffer was
	// sealed — backlog flushed downstream, not lost.
	Drained int64
	// Shed counts items discarded undelivered at shutdown: backlog the
	// deadline (or a dead audience) left behind, explicitly accounted.
	Shed int64
}

// DrainReport is the outcome of one Runtime.Drain.
type DrainReport struct {
	// Duration is runtime-clock time the drain took, including the final
	// Stop.
	Duration time.Duration
	// Drained and Shed total the per-buffer accounting.
	Drained int64
	Shed    int64
	// Clean reports that every buffer flushed (or lost its audience)
	// before the deadline: the drain completed without being cut off. A
	// deadline expiry or a Drain after Stop reports false.
	Clean bool
	// Buffers holds the per-buffer accounting, name-ordered.
	Buffers []BufferDrain
}

// Draining reports whether a graceful drain is in progress (or has
// completed). Stop alone never sets it.
func (rt *Runtime) Draining() bool { return rt.draining.Load() }

// Drain performs a graceful, phased shutdown bounded by timeout
// (non-positive means no deadline):
//
//  1. Quiesce: every source thread's Ctx flips to drain mode — its puts
//     return ErrDraining — and is asked to stop. No new work enters.
//  2. Seal wave: each buffer is sealed once every producer thread
//     feeding it has exited; sealed buffers serve their backlog until
//     empty, then their consumers observe ErrClosed and exit, sealing
//     the next stage. The wave polls on the runtime clock, so under the
//     virtual clock a drain is deterministic.
//  3. Settle: once every buffer is drained (or the deadline expires),
//     Stop closes everything; remaining items are counted as explicitly
//     shed by the buffer layer.
//
// On a scheduling clock (clock.Registrar) the caller must be a registered
// participant for the whole call, so that no thread runs past the drain
// instant before the sources quiesce; Drain does not register it again.
//
// Drain is idempotent — repeated calls return the first call's report.
// Drain after Stop performs no flushing (the buffers are already
// closed) and returns the settled accounting with Clean=false. Callers
// should still Wait() for thread failures as usual.
func (rt *Runtime) Drain(timeout time.Duration) DrainReport {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()
	if rt.drainDone {
		return rt.drainReport
	}

	rt.mu.Lock()
	started, stopped := rt.started, rt.stopped
	threads := append([]*Thread(nil), rt.threads...)
	type bref struct {
		name string
		b    buffer.Buffer
	}
	brefs := make([]bref, 0, len(rt.buffers))
	rt.g.Nodes(func(n *graph.Node) {
		if b, ok := rt.buffers[n.ID]; ok {
			brefs = append(brefs, bref{n.Name, b})
		}
	})
	rt.mu.Unlock()

	if !started {
		rt.drainDone = true
		return rt.drainReport
	}

	collect := func(dur time.Duration, clean bool) DrainReport {
		rep := DrainReport{Duration: dur, Clean: clean}
		for _, br := range brefs {
			st := br.b.Stats()
			rep.Drained += st.Drained
			rep.Shed += st.Shed
			rep.Buffers = append(rep.Buffers, BufferDrain{Name: br.name, Drained: st.Drained, Shed: st.Shed})
		}
		sort.Slice(rep.Buffers, func(i, j int) bool { return rep.Buffers[i].Name < rep.Buffers[j].Name })
		return rep
	}

	if stopped {
		// Stop already closed and shed everything; nothing left to flush.
		rt.drainDone = true
		rt.drainReport = collect(0, false)
		return rt.drainReport
	}

	begin := rt.clk.Now()
	rt.draining.Store(true)
	if rt.mDraining != nil {
		rt.mDraining.Set(1)
	}

	// Phase 1 — quiesce sources: no new work enters the graph. A source
	// mid-Put finishes that put (the item is real and will be flushed);
	// its next put is rejected with ErrDraining.
	for _, t := range threads {
		if t.isSource {
			t.quiesced.Store(true)
			t.requestStop()
		}
	}

	// Per-buffer peer sets for the seal wave, resolved from the wired
	// ports (the graph's authoritative connection lists).
	producersOf := make(map[buffer.Buffer][]*Thread)
	consumersOf := make(map[buffer.Buffer][]*Thread)
	for _, t := range threads {
		for _, p := range t.outs {
			producersOf[p.buf] = append(producersOf[p.buf], t)
		}
		for _, p := range t.ins {
			consumersOf[p.buf] = append(consumersOf[p.buf], t)
		}
	}
	exited := func(ts []*Thread) bool {
		for _, t := range ts {
			if s := t.State(); s != StateStopped && s != StateFailed {
				return false
			}
		}
		return true
	}

	// Phase 2 — seal wave.
	sealed := make(map[buffer.Buffer]bool, len(brefs))
	clean := true
	for {
		settled := true
		for _, br := range brefs {
			if !sealed[br.b] {
				if !exited(producersOf[br.b]) {
					settled = false
					continue
				}
				br.b.Seal()
				sealed[br.b] = true
			}
			// A sealed buffer is settled when its flush completed — or
			// when nobody is left to flush it (every consumer exited or
			// failed); the final Stop sheds such stranded backlog with
			// exact accounting.
			if !br.b.Drained() && !exited(consumersOf[br.b]) {
				settled = false
			}
		}
		if settled && exited(threads) {
			break
		}
		if timeout > 0 && rt.clk.Now()-begin >= timeout {
			clean = false
			break
		}
		rt.clk.Sleep(drainPollEvery)
	}

	// Phase 3 — settle: close everything. Backlog the wave did not flush
	// (deadline expiry, dead audiences) is counted as shed by each
	// backend's Close/Drain accounting.
	rt.Stop()
	dur := rt.clk.Now() - begin

	rt.draining.Store(false)
	if rt.mDraining != nil {
		rt.mDraining.Set(0)
	}
	if rt.mDrainDur != nil {
		rt.mDrainDur.Observe(dur)
	}
	rt.drainDone = true
	rt.drainReport = collect(dur, clean)
	return rt.drainReport
}
