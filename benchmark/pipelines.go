package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/remote"
	rt "repro/internal/runtime"
	"repro/internal/vt"
)

// The three timed workloads: pipelines whose thread bodies are the
// benchmark's own, run flat out (closed loop: a full buffer blocks the
// source) for a fixed time and measured over 250 ms windows.

// pipe is one built pipeline and the state its sink reports through.
type pipe struct {
	rt  *rt.Runtime
	reg *metrics.Registry
	srv *remote.Server // wire-loopback only
	st  *stamps

	delivered atomic.Int64
	warmAt    int64
	warm      chan struct{}

	// Owned by the thread bodies; read after stop.
	sink       seqCheck
	tee        *seqCheck // relay-single's get-latest monitor
	sourcePuts int64
	reattaches atomic.Int64
	payloadErr error

	capacity  int64 // items the buffers and relays can hold between source and sink
	consumers int   // threads that block in Get
	producers int   // threads that block in Put
}

// deliver counts n sink deliveries and releases the warm-up wait when the
// fixed warm-up count is reached.
func (p *pipe) deliver(n int64) {
	if d := p.delivered.Add(n); d >= p.warmAt && d-n < p.warmAt {
		close(p.warm)
	}
}

func (p *pipe) stop() error {
	p.rt.Stop()
	err := p.rt.Wait()
	if p.srv != nil {
		p.srv.Close()
	}
	return err
}

const itemSize = 64 // logical bytes of a relay or ring item

// buildRelay declares
//
//	src → queue(1000) → relay → ring(1024) → relay → queue(1000) → sink
//	src → channel(1000) → monitor (get-latest)
//
// with single-item Put/Get/Sync everywhere and the metrics registry on. A
// channel hop is left out on purpose: get-latest collapses a saturated
// relay to a few thousand deliveries a second, so the channel rides along
// as a tee and its skip-over path is still exercised every iteration.
func buildRelay(policy core.Policy, sl *spanLog, warmAt int64) (*pipe, error) {
	p := &pipe{
		reg: metrics.NewRegistry(), st: newStamps(sampleEvery, 4096, 1<<17),
		warmAt: warmAt, warm: make(chan struct{}),
		sink: seqCheck{fifo: true}, tee: &seqCheck{},
		capacity: 1000 + 1024 + 1000 + 2, consumers: 4, producers: 3,
	}
	p.rt = rt.New(rt.Options{Clock: clock.NewReal(), ARU: policy, Metrics: p.reg})
	// 1000 is not a power of two, which keeps the queues queues: Start
	// upgrades an eligible power-of-two queue to a ring.
	q1 := p.rt.MustAddQueue("q1", 0, rt.WithCapacity(1000))
	ring := p.rt.MustAddRing("ring", 0, rt.WithCapacity(1024))
	q2 := p.rt.MustAddQueue("q2", 0, rt.WithCapacity(1000))
	tee := p.rt.MustAddChannel("tee", 0, rt.WithCapacity(1000))

	src := p.rt.MustAddThread("src", 0, func(ctx *rt.Ctx) error {
		out, teeOut := ctx.Outs()[0], ctx.Outs()[1]
		sb := sl.thread(threadSpans)
		for ts := int64(1); ; ts++ {
			p.st.born(ts - 1)
			it := sb.begin(ts - 1)
			if err := ctx.Put(out, vt.Timestamp(ts), nil, itemSize); err != nil {
				p.sourcePuts = ts - 1
				return err
			}
			it.mark("runtime.put", ts)
			if err := ctx.Put(teeOut, vt.Timestamp(ts), nil, itemSize); err != nil {
				p.sourcePuts = ts
				return err
			}
			it.mark("runtime.put", ts)
			ctx.Sync()
			it.mark("runtime.sync", ts)
			it.end("src.iter", ts)
		}
	})
	src.MustOutput(q1)
	src.MustOutput(tee)

	relay := func(name string) rt.Body {
		iterName := name + ".iter"
		return func(ctx *rt.Ctx) error {
			in, out := ctx.Ins()[0], ctx.Outs()[0]
			sb := sl.thread(threadSpans)
			for i := int64(0); ; i++ {
				it := sb.begin(i)
				msg, err := ctx.Get(in)
				if err != nil {
					return err
				}
				ts := int64(msg.TS)
				it.mark("runtime.get", ts)
				if err := ctx.Put(out, msg.TS, msg.Payload, msg.Size); err != nil {
					return err
				}
				it.mark("runtime.put", ts)
				ctx.Sync()
				it.mark("runtime.sync", ts)
				it.end(iterName, ts)
			}
		}
	}
	r1 := p.rt.MustAddThread("relay1", 0, relay("relay1"))
	r1.MustInput(q1)
	r1.MustOutput(ring)
	r2 := p.rt.MustAddThread("relay2", 0, relay("relay2"))
	r2.MustInput(ring)
	r2.MustOutput(q2)

	p.rt.MustAddThread("sink", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		sb := sl.thread(threadSpans)
		for i := int64(0); ; i++ {
			it := sb.begin(i)
			msg, err := ctx.Get(in)
			if err != nil {
				return err
			}
			ts := int64(msg.TS)
			it.mark("runtime.get", ts)
			p.sink.see(ts)
			p.st.arrived(ts - 1)
			p.deliver(1)
			it.resume()
			ctx.Sync()
			it.mark("runtime.sync", ts)
			it.end("sink.iter", ts)
		}
	}).MustInput(q2)

	p.rt.MustAddThread("monitor", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		for {
			msg, err := ctx.Get(in)
			if err != nil {
				return err
			}
			p.tee.see(int64(msg.TS))
			ctx.Sync()
		}
	}).MustInput(tee)
	return p, nil
}

const batch = 64

// buildRingBatch declares src → ring(1024) → sink with PutBatch/GetBatch of
// 64: the same layers as relay-single used through the batch fast path.
func buildRingBatch(sl *spanLog, warmAt int64) (*pipe, error) {
	p := &pipe{
		reg: metrics.NewRegistry(), st: newStamps(batch*sampleEvery, 2048, 1<<17),
		warmAt: warmAt, warm: make(chan struct{}),
		sink:     seqCheck{fifo: true},
		capacity: 1024, consumers: 1, producers: 1,
	}
	p.rt = rt.New(rt.Options{Clock: clock.NewReal(), ARU: core.PolicyOff(), Metrics: p.reg})
	ring := p.rt.MustAddRing("ring", 0, rt.WithCapacity(1024))

	p.rt.MustAddThread("src", 0, func(ctx *rt.Ctx) error {
		out := ctx.Outs()[0]
		sb := sl.thread(threadSpans)
		specs := make([]rt.PutSpec, batch)
		ts := int64(0)
		for i := int64(0); ; i++ {
			p.st.born(ts)
			for k := range specs {
				ts++
				specs[k] = rt.PutSpec{TS: vt.Timestamp(ts), Size: itemSize}
			}
			it := sb.begin(i)
			applied, err := ctx.PutBatch(out, specs)
			if err != nil {
				p.sourcePuts = ts - batch + int64(applied)
				return err
			}
			it.mark("runtime.putbatch", ts)
			ctx.Sync()
			it.mark("runtime.sync", ts)
			it.end("src.iter", ts)
		}
	}).MustOutput(ring)

	p.rt.MustAddThread("sink", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		sb := sl.thread(threadSpans)
		dst := make([]rt.Msg, batch)
		for i := int64(0); ; i++ {
			it := sb.begin(i)
			n, err := ctx.GetBatch(in, dst)
			if err != nil {
				return err
			}
			// The span covers n items; the metric divides by the batch size,
			// which a saturated ring nearly always fills.
			head := int64(dst[0].TS)
			it.mark("runtime.getbatch", head)
			for k := 0; k < n; k++ {
				ts := int64(dst[k].TS)
				p.sink.see(ts)
				p.st.arrived(ts - 1)
			}
			p.deliver(int64(n))
			it.resume()
			ctx.Sync()
			it.mark("runtime.sync", head)
			it.end("sink.iter", head)
		}
	}).MustInput(ring)
	return p, nil
}

// wirePayloads builds the 16 payloads a wire-loopback producer cycles
// through — 68 B x11, 4 KiB x3, 64 KiB x2 — in an order drawn from seed. Two
// large payloads, not one, so that the 95th percentile of the latency falls
// inside the 64 KiB class (the top eighth) and not on its edge.
// Each is boxed once, so the generator allocates nothing per item; byte 0
// tags the payload and the last byte is a checksum of the rest.
func wirePayloads(seed int64) (boxed []any, raw [][]byte) {
	sizes := make([]int, 0, 16)
	for i := 0; i < 11; i++ {
		sizes = append(sizes, 68)
	}
	sizes = append(sizes, 4<<10, 4<<10, 4<<10, 64<<10, 64<<10)
	rand.New(rand.NewSource(seed)).Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for i, n := range sizes {
		b := make([]byte, n)
		for k := range b {
			b[k] = byte(k*7 + i)
		}
		b[0] = byte(i)
		b[n-1] = checksum(b[:n-1])
		raw = append(raw, b)
		boxed = append(boxed, b)
	}
	return boxed, raw
}

// buildWire starts a channel server on 127.0.0.1:0 and declares one
// producer thread and one consumer thread on a remote channel mounted from
// it: two TCP connections, gob on the wire, one round trip per put and per
// get. The channel is get-latest, so a consumer slower than the producer
// skips; what it does receive must be in order and intact.
func buildWire(seed int64, sl *spanLog, warmAt int64) (*pipe, error) {
	p := &pipe{
		reg: metrics.NewRegistry(), st: newStamps(1, 4096, 1<<19),
		warmAt: warmAt, warm: make(chan struct{}),
		consumers: 1, producers: 1,
	}
	srv, err := remote.NewServer(remote.ServerConfig{Addr: "127.0.0.1:0"}, "wire")
	if err != nil {
		return nil, fmt.Errorf("wire server: %w", err)
	}
	p.srv = srv
	p.rt = rt.New(rt.Options{Clock: clock.NewReal(), ARU: core.PolicyOff(), Metrics: p.reg})
	ch, err := p.rt.AddRemoteChannel("wire", 0, srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	boxed, raw := wirePayloads(seed)

	// applied reports whether a wire call took effect, counting the
	// informational re-attach and refusing everything else.
	applied := func(err error) bool {
		if errors.Is(err, rt.ErrReattached) {
			p.reattaches.Add(1)
			return true
		}
		return err == nil
	}

	p.rt.MustAddThread("producer", 0, func(ctx *rt.Ctx) error {
		out := ctx.Outs()[0]
		sb := sl.thread(threadSpans)
		for ts := int64(1); ; ts++ {
			k := (ts - 1) % int64(len(boxed))
			p.st.born(ts - 1)
			it := sb.begin(ts - 1)
			if err := ctx.Put(out, vt.Timestamp(ts), boxed[k], int64(len(raw[k]))); !applied(err) {
				p.sourcePuts = ts - 1
				return err
			}
			it.mark("runtime.put", ts)
			ctx.Sync()
			it.mark("runtime.sync", ts)
			it.end("producer.iter", ts)
		}
	}).MustOutput(ch)

	p.rt.MustAddThread("consumer", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		sb := sl.thread(threadSpans)
		for i := int64(0); ; i++ {
			it := sb.begin(i)
			msg, err := ctx.Get(in)
			if !applied(err) {
				return err
			}
			ts := int64(msg.TS)
			it.mark("runtime.get", ts)
			p.st.arrived(ts - 1)
			p.sink.see(ts)
			got, _ := msg.Payload.([]byte)
			if err := checkPayload(got, raw[(ts-1)%int64(len(raw))]); err != nil && p.payloadErr == nil {
				p.payloadErr = fmt.Errorf("item %d: %w", ts, err)
			}
			p.deliver(1)
			it.resume()
			ctx.Sync()
			it.mark("runtime.sync", ts)
			it.end("consumer.iter", ts)
		}
	}).MustInput(ch)
	return p, nil
}

func runRelaySingle(cfg runCfg, rep *report) error {
	return runTimed(cfg, rep, int64(cfg.pick(300_000, 2_000)), func(sl *spanLog, warmAt int64) (*pipe, error) {
		return buildRelay(core.PolicyOff(), sl, warmAt)
	})
}

func runRingBatch(cfg runCfg, rep *report) error {
	return runTimed(cfg, rep, int64(cfg.pick(12_000_000, 20_000)), buildRingBatch)
}

func runWireLoopback(cfg runCfg, rep *report) error {
	return runTimed(cfg, rep, int64(cfg.pick(15_000, 200)), func(sl *spanLog, warmAt int64) (*pipe, error) {
		return buildWire(cfg.seed, sl, warmAt)
	})
}

// runTimed sets a pipeline up, measures it over windows, stops it and
// checks what its sink saw. Set-up — construction, Start and a fixed count
// of warm-up deliveries — is done three times and the median reported: a
// single set-up of this length still moves by a fifth from run to run.
func runTimed(cfg runCfg, rep *report, warmAt int64, build func(*spanLog, int64) (*pipe, error)) error {
	var sl *spanLog
	setups := cfg.pick(3, 1)
	if cfg.trace {
		sl, setups = newSpanLog(), 1
		rep.spans = sl
	}
	var p *pipe
	var setupS, buildMs []float64
	for i := 0; i < setups; i++ {
		if p != nil {
			if err := p.stop(); err != nil {
				return fmt.Errorf("discarded set-up: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if p, err = build(sl, warmAt); err != nil {
			return err
		}
		if err := p.rt.Start(); err != nil {
			return err
		}
		buildMs = append(buildMs, float64(time.Since(t0).Microseconds())/1e3)
		<-p.warm
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	o := outcome{setupS: setupS, buildMs: median(buildMs), producers: p.producers, consumers: p.consumers}
	// The live heap is read here, after the warm-up's fixed count of items
	// and with the pipeline running, not after the timed interval: whatever
	// grows per item (finding 4) would otherwise charge a faster pipeline
	// for the extra items it moved in the same time.
	o.heapMB = liveHeapMB()
	waited0 := blockedSeconds(p.reg)
	m0, g0 := memNow()
	p.st.recording.Store(true)
	measured := cfg.seconds
	if cfg.trace {
		// The first third runs untraced in the same process, so the traced
		// rate has a reference measured under the same conditions.
		o.ref = fromWindows(measureWindows(cfg.seconds/3, windowEvery, p.delivered.Load))
		measured -= cfg.seconds / 3
		sl.on.Store(true)
	}
	o.r = fromWindows(measureWindows(measured, windowEvery, p.delivered.Load))
	sl.stopSampling()
	p.st.recording.Store(false)
	m1, g1 := memNow()
	o.mallocs, o.gcs = m1-m0, g1-g0
	o.waitedS = blockedSeconds(p.reg) - waited0
	o.snap = p.rt.Snapshot()

	t0 := time.Now()
	if err := p.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	o.stopMs = float64(time.Since(t0).Microseconds()) / 1e3

	// Checks on what the sinks saw and on the stopped pipeline's books.
	p.sink.report(rep, "sink")
	if p.tee != nil {
		p.tee.report(rep, "monitor")
	}
	if p.sink.fifo {
		checkResidue(rep, p.sourcePuts, p.sink.n, p.capacity)
	}
	if p.payloadErr != nil {
		rep.failed++
		rep.failf("wire payload: %v", p.payloadErr)
	}
	if n := p.reattaches.Load(); n > 0 {
		rep.failf("%d wire re-attaches on a loopback link", n)
	}
	checkAccounting(rep, p.rt.Snapshot())
	// Steady-state puts and gets recycle pooled items; an allocation per
	// item here is a leak in the hot path, not noise.
	if a := o.allocsPerItem(); p.sink.fifo && !cfg.toy && a >= 0.05 {
		rep.failf("%.3f allocations per item on a pooled path (limit 0.05)", a)
	}

	o.latUs = windowedLatencyUs(p.st.lat, 0.5, 0.95, 0.99)
	o.skippedFrac = float64(p.sink.skipped()) / float64(p.sink.skipped()+p.sink.n)
	o.reattaches = p.reattaches.Load()
	o.emit(cfg, rep)
	return nil
}

// blockedSeconds sums the runtime's own get-blocked histograms: the time
// consumer threads spent parked waiting for an item.
func blockedSeconds(reg *metrics.Registry) float64 {
	var s float64
	for _, fam := range reg.Gather() {
		if fam.Name == "aru_buffer_get_blocked_seconds" {
			for _, ser := range fam.Series {
				s += float64(ser.Sum)
			}
		}
	}
	return s
}
