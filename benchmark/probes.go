package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
)

// The probe suite: every layer measured on its own, by calling its public
// functions directly from one goroutine. A traced run of any workload ends
// with the same suite, so a layer number never depends on which workload
// was asked for. Unless said otherwise a probe runs at GOMAXPROCS=1 and
// reports the median of five equal rounds.

// perOp times n calls of op in five rounds and returns the median
// nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	const rounds = 5
	per := n / rounds
	if per < 1 {
		per = 1
	}
	ns := make([]float64, rounds)
	for r := range ns {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			op(r*per + i)
		}
		ns[r] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(ns)
}

func runProbes(cfg runCfg, rep *report) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, probe := range []func(runCfg, *report) error{
		probeBuffers, probeCore, probeSmall, probeClocks, probeTracker, probeScenario, probeRemote, probeRelayVariants,
	} {
		if err := probe(cfg, rep); err != nil {
			return err
		}
	}
	return nil
}

// ops is how many calls a nanosecond-scale probe times.
func ops(cfg runCfg) int { return cfg.pick(200_000, 1_000) }

// --- buffer, queue, ring, channel ---------------------------------------------

const (
	probeProd graph.ConnID = 1
	probeCons graph.ConnID = 2
)

func newBackend(name string, pool *buffer.ItemPool) buffer.Buffer {
	b, err := buffer.New(name, buffer.Config{
		Name: "probe-" + name, Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp(),
		Capacity: 1024, Pool: pool,
	})
	if err == nil {
		err = b.AttachProducer(probeProd)
	}
	if err == nil {
		err = b.AttachConsumer(probeCons, 1)
	}
	if err != nil {
		panic(fmt.Sprintf("probe backend %s: %v", name, err)) // a registered backend with a plain config cannot refuse
	}
	return b
}

func probeBuffers(cfg runCfg, rep *report) error {
	n := ops(cfg)
	pool := buffer.NewItemPool()
	rep.set("buffer.pool_ns", perOp(n, func(int) { pool.Recycle(pool.Get()) }))

	for _, name := range []string{"queue", "ring", "channel"} {
		b := newBackend(name, pool)
		rep.set(name+".putget_ns", perOp(n, func(i int) {
			it := pool.Get()
			it.TS, it.Size = vt.Timestamp(i+1), itemSize
			b.Put(probeProd, it)
			b.Get(probeCons)
		}))
		b.Close()
	}

	// Get-latest over 999 stale items: the paper's skip-over path, with the
	// reclamation of what was skipped. Only the get is timed.
	ch := newBackend("channel", pool)
	var ts vt.Timestamp
	skip := make([]float64, 0, 64)
	for round := 0; round < cap(skip) && round*1000 < n; round++ {
		for k := 0; k < 1000; k++ {
			ts++
			it := pool.Get()
			it.TS, it.Size = ts, itemSize
			ch.Put(probeProd, it)
		}
		t0 := time.Now()
		ch.Get(probeCons)
		skip = append(skip, float64(time.Since(t0).Nanoseconds())/999)
	}
	ch.Close()
	rep.set("channel.skip_ns_per_item", median(skip))

	ring := newBackend("ring", pool)
	items := make([]*buffer.Item, batch)
	dst := make([]buffer.GetResult, batch)
	rep.set("ring.batch64_ns_per_item", perOp(n/4, func(i int) {
		pool.GetN(items)
		for k, it := range items {
			it.TS, it.Size = vt.Timestamp(i*batch+k+1), itemSize
		}
		ring.PutBatch(probeProd, items)
		ring.GetBatch(probeCons, dst)
	})/batch)
	ring.Close()
	return nil
}

// --- core -----------------------------------------------------------------------

// fig3 builds the paper's Figure 3 fan-out — thread A feeding channels B..F,
// each with one consumer reporting the figure's STP — and returns the
// controller with one put connection and one get connection to fold on.
func fig3(p core.Policy) (c *core.Controller, a graph.NodeID, put, get graph.ConnID) {
	g := graph.New()
	a = g.MustAddNode(graph.KindThread, "A", 0)
	reports := []struct {
		name string
		stp  core.STP
	}{{"B", 337e6}, {"C", 139e6}, {"D", 273e6}, {"E", 544e6}, {"F", 420e6}}
	consumers := make([]graph.NodeID, len(reports))
	for i, r := range reports {
		ch := g.MustAddNode(graph.KindChannel, r.name, 0)
		consumers[i] = g.MustAddNode(graph.KindThread, r.name+"-consumer", 0)
		pc, gc := g.MustConnect(a, ch), g.MustConnect(ch, consumers[i])
		if i == 0 {
			put, get = pc, gc
		}
	}
	c = core.NewController(g, p)
	for i, r := range reports {
		c.SetCurrentSTP(consumers[i], r.stp)
	}
	g.Conns(func(cn *graph.Conn) {
		if g.Node(cn.From).Kind == graph.KindChannel {
			c.NoteGet(cn.ID)
		}
	})
	g.Conns(func(cn *graph.Conn) {
		if g.Node(cn.To).Kind == graph.KindChannel {
			c.NotePut(cn.ID)
		}
	})
	return c, a, put, get
}

func probeCore(cfg runCfg, rep *report) error {
	n := ops(cfg)
	off, _, put, get := fig3(core.PolicyOff())
	rep.set("core.fold_off_ns", perOp(n, func(int) { off.NoteGet(get); off.NotePut(put) }))

	min, a, put, get := fig3(core.PolicyMin())
	rep.set("core.fold_ns", perOp(n, func(int) { min.NoteGet(get); min.NotePut(put) }))
	if got := min.State(a).Summary(); got != core.STP(139e6) {
		return fmt.Errorf("Figure 3 fold: A's summary-STP is %v, the paper says 139ms", got)
	}
	return nil
}

// --- metrics, trace, transport, graph, scenario generator -------------------------

// stepClock is a clock whose Sleep returns at once, so a probe of a layer
// that sleeps on its clock measures the layer and not the sleep.
type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration    { return c.now }
func (c *stepClock) Sleep(d time.Duration) { c.now += d }

func probeSmall(cfg runCfg, rep *report) error {
	n := ops(cfg)
	reg := metrics.NewRegistry()
	ctr := reg.Counter("probe_total", "probe", metrics.Labels{"buffer": "probe"})
	hist := reg.Histogram("probe_seconds", "probe", nil, metrics.Labels{"buffer": "probe"})
	rep.set("metrics.update_ns", perOp(n, func(i int) { ctr.Inc(); hist.Observe(time.Duration(i)) }))

	rec := trace.NewRecorder()
	rep.set("trace.append_ns", perOp(n, func(i int) {
		rec.Append(trace.Event{Kind: trace.EvGet, At: time.Duration(i), Item: trace.ItemID(i), Node: 1, Thread: 2})
	}))

	net := transport.NewNetwork(&stepClock{}, 2, transport.GigabitEthernet)
	rep.set("transport.transfer_ns", perOp(n, func(int) { net.Transfer(0, 1, 738<<10) }))

	const nodes = 1000
	rep.set("graph.build_us_per_node", perOp(cfg.pick(100, 5), func(int) {
		g := graph.New()
		prev := g.MustAddNode(graph.KindThread, "t0", 0)
		for k := 1; k < nodes; k += 2 {
			ch := g.MustAddNode(graph.KindChannel, fmt.Sprint("c", k), 0)
			th := g.MustAddNode(graph.KindThread, fmt.Sprint("t", k), 0)
			g.MustConnect(prev, ch)
			g.MustConnect(ch, th)
			prev = th
		}
		if err := g.Validate(); err != nil {
			panic(err) // a chain is a valid graph
		}
	})/1e3/nodes)

	rep.set("scenario.generate_us", perOp(cfg.pick(500, 5), func(i int) {
		if _, err := scenario.Generate(scenario.DefaultParams(uint64(cfg.seed)+uint64(i), "diamond", "steady")); err != nil {
			panic(err) // default parameters are inside the generator's bounds
		}
	})/1e3)
	return nil
}

// --- clocks ---------------------------------------------------------------------

// virtualSleepUs runs sleepers goroutines, each sleeping rounds times on one
// virtual clock with its own period, and returns wall microseconds per
// sleep: the cost of a quiescence round plus the scan for the next deadline.
func virtualSleepUs(sleepers, rounds int) float64 {
	v := clock.NewVirtual()
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < sleepers; s++ {
		wg.Add(1)
		v.Add(1)
		go func(period time.Duration) {
			defer wg.Done()
			defer v.Add(-1)
			for r := 0; r < rounds; r++ {
				v.Sleep(period)
			}
		}(time.Duration(s+1) * time.Millisecond)
	}
	wg.Wait()
	return float64(time.Since(t0).Microseconds()) / float64(sleepers*rounds)
}

func probeClocks(cfg runCfg, rep *report) error {
	rep.set("clock.virtual_sleep_us_6", virtualSleepUs(6, cfg.pick(5000, 50)))
	rep.set("clock.virtual_sleep_us_1k", virtualSleepUs(1000, cfg.pick(20, 2)))

	// A scaled-clock sleep of one wall millisecond: how far past it the
	// sleeper wakes, which is what costs tracker-real its frame rate.
	sc := clock.NewScaled(clock.NewReal(), realScale)
	over := make([]float64, cfg.pick(200, 10))
	for i := range over {
		t0 := time.Now()
		sc.Sleep(realScale * time.Millisecond)
		over[i] = float64((time.Since(t0) - time.Millisecond).Nanoseconds()) / 1e3
	}
	rep.set("clock.scaled_overshoot_us", median(over))
	return nil
}

// --- tracker and trace ------------------------------------------------------------

// probeTracker runs the tracker once — one host, ARU-min, virtual clock —
// and reports its fidelity numbers and what the trace layer cost. It then
// repeats the run at GOMAXPROCS=2 and reports the share of repeats whose
// analysis differs: the virtual clock decides that the system is quiet by
// yielding, which two processors can outrun.
func probeTracker(cfg runCfg, rep *report) error {
	d, warm := trackerSpan(cfg)
	sb := newSpanLog().thread(batchSpans)
	sb.log.on.Store(true)
	a, events, err := runTracker(trackerCases[1], cfg.seed, d, warm, sb)
	if err != nil {
		return err
	}
	checkTracker(rep, "tracker probe", a)
	ns := durations(sb.spans)
	rep.set("tracker.run_ms", ns["tracker.run"][0]/1e6)
	rep.set("trace.analyze_ms_per_kevent", ns["trace.analyze"][0]/1e6/(float64(events)/1e3))
	rep.set("trace.events_per_item", float64(events)/float64(a.ItemsTotal))
	rep.set("tracker.fps", a.ThroughputFPS)
	rep.set("tracker.footprint_mb", a.All.MeanBytes/(1<<20))
	rep.set("tracker.wasted_mem_pct", a.WastedMemPct)
	rep.set("tracker.wasted_comp_pct", a.WastedCompPct)
	rep.set("tracker.jitter_us", float64(a.Jitter.Nanoseconds())/1e3)
	rep.set("tracker.skips_frac", float64(a.Skips)/float64(a.Skips+a.Gets))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	repeats := cfg.pick(4, 1)
	var differ int
	for i := 0; i < repeats; i++ {
		again, _, err := runTracker(trackerCases[1], cfg.seed, d, warm, sb)
		if err != nil {
			return err
		}
		if fingerprint(again) != fingerprint(a) {
			differ++
		}
	}
	rep.set("clock.virtual_divergent_frac", float64(differ)/float64(repeats))
	return nil
}

// --- scenario cells and the scheduler -----------------------------------------------

// probeScenario times the ten pinned cells that inject failures, drain or
// run the elastic scheduler — the ones that reach supervisor, drain and
// sched — and counts the scheduler's scale-ups, which are exact.
func probeScenario(cfg runCfg, rep *report) error {
	pins, err := loadPins(cfg.root)
	if err != nil {
		return err
	}
	sb := newSpanLog().thread(batchSpans)
	var ms []float64
	var ups int64
	for _, pin := range pins {
		if pin.Failures == 0 && !pin.DrainMode && !pin.ElasticMode {
			continue
		}
		if cfg.toy && len(ms) == 2 {
			break
		}
		t0 := time.Now()
		cm, err := runCell(pin, sb)
		if err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0).Microseconds())/1e3)
		ups += cm.ElasticScaleUps
	}
	rep.set("scenario.cell_ms_p50", median(ms))
	rep.set("scenario.cell_ms_max", quantile(ms, 1))
	rep.set("sched.scale_ups", float64(ups))
	return nil
}

// --- remote ---------------------------------------------------------------------------

// countingListener counts every byte its connections carry, either way.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// probeRemote puts and gets 4 KiB items through the wire protocol's own
// client, one call at a time, so each round trip is timed alone.
func probeRemote(cfg runCfg, rep *report) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wire atomic.Int64
	srv, err := remote.NewServer(remote.ServerConfig{Listener: countingListener{ln, &wire}}, "probe")
	if err != nil {
		ln.Close()
		return err
	}
	defer srv.Close()
	prod, err := remote.DialProducer(srv.Addr(), "probe")
	if err != nil {
		return err
	}
	defer prod.Close()
	cons, err := remote.DialConsumer(srv.Addr(), "probe")
	if err != nil {
		return err
	}
	defer cons.Close()

	n := cfg.pick(3000, 20)
	payload := make([]byte, 4<<10)
	puts, gets := make([]float64, n), make([]float64, n)
	var ts vt.Timestamp
	roundTrip := func(p []byte) (put, get float64, err error) {
		ts++
		t0 := time.Now()
		if _, err = prod.Put(ts, p, int64(len(p))); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err = cons.GetLatest(core.Unknown); err != nil {
			return 0, 0, err
		}
		return float64(t1.Sub(t0).Nanoseconds()) / 1e3, float64(time.Since(t1).Nanoseconds()) / 1e3, nil
	}
	for i := 0; i < n/10; i++ { // warm the connections and the codec's type tables
		if _, _, err := roundTrip(payload); err != nil {
			return err
		}
	}
	bytes0 := wire.Load()
	m0, _ := memNow()
	for i := range puts {
		if puts[i], gets[i], err = roundTrip(payload); err != nil {
			return err
		}
	}
	m1, _ := memNow()
	rep.set("remote.put_rtt_us", median(puts))
	rep.set("remote.get_rtt_us", median(gets))
	rep.set("remote.wire_bytes_per_item", float64(wire.Load()-bytes0)/float64(n))
	rep.set("remote.allocs_per_rtt", float64(m1-m0)/float64(2*n))

	big := make([]byte, 64<<10)
	puts = puts[:cfg.pick(300, 5)]
	for i := range puts {
		if puts[i], _, err = roundTrip(big); err != nil {
			return err
		}
	}
	rep.set("remote.put_rtt_us_64k", median(puts))
	return nil
}

// --- relay-single under two other settings ----------------------------------------------

// probeRelayVariants runs the relay-single pipeline twice more, briefly:
// under ARU-min, where microsecond periods make the source sleep for less
// than the timer can, and at GOMAXPROCS=2. Both are the before-numbers of
// findings in the README. The second pipeline's registry is also scraped.
func probeRelayVariants(cfg runCfg, rep *report) error {
	brief := func(policy core.Policy, warmAt int64, scrape bool) (float64, error) {
		p, err := buildRelay(policy, nil, warmAt)
		if err != nil {
			return 0, err
		}
		if err := p.rt.Start(); err != nil {
			return 0, err
		}
		<-p.warm
		t0, d0 := time.Now(), p.delivered.Load()
		time.Sleep(time.Duration(cfg.pick(1000, 50)) * time.Millisecond)
		rate := float64(p.delivered.Load()-d0) / time.Since(t0).Seconds()
		if scrape {
			t0 := time.Now()
			if err := p.reg.WriteProm(io.Discard); err != nil {
				return 0, err
			}
			rep.set("metrics.scrape_ms", float64(time.Since(t0).Microseconds())/1e3)
			var series int
			for _, fam := range p.reg.Gather() {
				series += len(fam.Series)
			}
			rep.set("metrics.series", float64(series))
		}
		return rate, p.stop()
	}
	paced, err := brief(core.PolicyMin(), int64(cfg.pick(20_000, 200)), false)
	if err != nil {
		return err
	}
	rep.set("runtime.paced_items_per_s", paced)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p2, err := brief(core.PolicyOff(), int64(cfg.pick(100_000, 500)), true)
	if err != nil {
		return err
	}
	rep.set("runtime.items_per_s_p2", p2)
	return nil
}
