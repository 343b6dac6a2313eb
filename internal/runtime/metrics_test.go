package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vt"
)

// gatheredValue returns the value of the series of family name whose
// labels include ls, from one registry gather.
func gatheredValue(t *testing.T, fams []metrics.FamilySnapshot, name string, ls metrics.Labels) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			for k, v := range ls {
				if s.Labels[k] != v {
					continue series
				}
			}
			return float64(s.Value)
		}
	}
	t.Fatalf("no series %s%v in the gather", name, ls)
	return 0
}

// TestGatherManualClockPinned pins gather-time gauges on a manual
// clock. With metrics on and no stall TTL nothing runs in the
// background (no clock sleeper), and each Gather takes a Snapshot
// first: an idle thread never Syncs, so its heartbeat age reads exactly
// the advanced time — 1s, then 2s — and the buffer occupancy shows the
// single buffered item.
func TestGatherManualClockPinned(t *testing.T) {
	clk := clock.NewManual()
	reg := metrics.NewRegistry()
	rt := New(Options{Clock: clk, ARU: core.PolicyOff(), Metrics: reg})
	ch := rt.MustAddChannel("C", 0)

	putDone := make(chan struct{})
	consUp := make(chan struct{})
	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		if err := ctx.Put(ctx.Outs()[0], 1, nil, 64); err != nil {
			return err
		}
		close(putDone)
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("idle-cons", 0, func(ctx *Ctx) error {
		close(consUp)
		<-ctx.Done() // never Syncs: the heartbeat stays at its start stamp
		return nil
	})
	src.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	<-putDone
	<-consUp
	if n := clk.Sleepers(); n != 0 {
		t.Fatalf("%d clock sleepers with metrics on and no TTL, want 0", n)
	}

	buf := metrics.Labels{"buffer": "C"}
	idle := metrics.Labels{"thread": "idle-cons"}
	clk.Advance(time.Second)
	fams := reg.Gather()
	if items, bytes := gatheredValue(t, fams, MetricBufferItems, buf), gatheredValue(t, fams, MetricBufferBytes, buf); items != 1 || bytes != 64 {
		t.Errorf("occupancy after 1s = %v items/%v bytes, want 1/64", items, bytes)
	}
	if age := gatheredValue(t, fams, MetricHeartbeatAge, idle); age != 1 {
		t.Errorf("heartbeat age after 1s = %vs, want exactly 1s", age)
	}
	if stalled := gatheredValue(t, fams, MetricThreadStalled, idle); stalled != 0 {
		t.Errorf("stalled gauge = %v, want 0", stalled)
	}

	clk.Advance(time.Second)
	if age := gatheredValue(t, reg.Gather(), MetricHeartbeatAge, idle); age != 2 {
		t.Errorf("heartbeat age after 2s = %vs, want exactly 2s", age)
	}

	// The buffer layer's own counters were event-incremented, not
	// gather-driven: the put was counted when it happened.
	if puts := reg.Counter(buffer.MetricPuts, "", buf); puts.Value() != 1 {
		t.Errorf("puts counter = %d, want 1", puts.Value())
	}

	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotNoParticipant: with metrics on, neither Start nor an
// on-demand Snapshot starts a background participant (nothing ever
// sleeps on the clock), and the Snapshot refreshes the gauge families.
func TestSnapshotNoParticipant(t *testing.T) {
	clk := clock.NewManual()
	reg := metrics.NewRegistry()
	rt := New(Options{Clock: clk, ARU: core.PolicyOff(), Metrics: reg})
	ch := rt.MustAddChannel("C", 0)

	putDone := make(chan struct{})
	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
		if err := ctx.Put(ctx.Outs()[0], 1, nil, 64); err != nil {
			return err
		}
		close(putDone)
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		<-ctx.Done()
		return nil
	})
	src.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	<-putDone

	items := reg.Gauge(MetricBufferItems, "", metrics.Labels{"buffer": "C"})
	if items.Value() != 0 {
		t.Fatalf("gauge moved without a Snapshot or a gather: %d", items.Value())
	}
	rt.Snapshot()
	if items.Value() != 1 {
		t.Fatalf("on-demand Snapshot did not publish: items = %d, want 1", items.Value())
	}
	if n := clk.Sleepers(); n != 0 {
		t.Fatalf("%d clock sleepers after Start and Snapshot, want 0", n)
	}

	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteStatusLongNamesAligned is the fixed-width regression test:
// the old renderer hard-coded %-18s name columns, so longer names broke
// every column after them. Widths are now computed from the snapshot;
// a name much longer than 18 characters must appear untruncated and
// every table column must still line up with its header.
func TestWriteStatusLongNamesAligned(t *testing.T) {
	const (
		longThread = "a-preposterously-long-thread-name-that-broke-fixed-columns"
		longBuffer = "an-equally-preposterously-long-buffer-name"
	)
	rt := New(Options{Clock: fastClock(), ARU: core.PolicyMin()})
	ch := rt.MustAddChannel(longBuffer, 0)
	src := rt.MustAddThread(longThread, 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
			ctx.Compute(time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 10); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	})
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			ctx.Sync()
		}
	})
	src.MustOutput(ch)
	sink.MustInput(ch)
	if err := rt.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	rt.WriteStatus(&sb)
	out := sb.String()
	lines := strings.Split(out, "\n")

	// rowAfter finds the first line with rowPrefix at or after the line
	// with hdrPrefix, so each assertion stays inside its own table (the
	// same names appear in both the ARU node table and the buffer/thread
	// tables).
	rowAfter := func(hdrPrefix, rowPrefix string) (hdr, row string) {
		t.Helper()
		i := 0
		for ; i < len(lines); i++ {
			if strings.HasPrefix(lines[i], hdrPrefix) {
				hdr = lines[i]
				break
			}
		}
		if hdr == "" {
			t.Fatalf("no line starting with %q in:\n%s", hdrPrefix, out)
		}
		for i++; i < len(lines); i++ {
			if strings.HasPrefix(lines[i], rowPrefix) {
				return hdr, lines[i]
			}
		}
		t.Fatalf("no line starting with %q after %q in:\n%s", rowPrefix, hdrPrefix, out)
		return "", ""
	}

	// Untruncated names.
	if !strings.Contains(out, longThread) || !strings.Contains(out, longBuffer) {
		t.Fatalf("long names truncated:\n%s", out)
	}

	// ARU table: the kind column of the long node row starts where the
	// header says it does.
	nodeHdr, nodeRow := rowAfter("node ", longThread+" ")
	kindCol := strings.Index(nodeHdr, "kind")
	if kindCol <= len("node") {
		t.Fatalf("node header has no kind column: %q", nodeHdr)
	}
	if !strings.HasPrefix(nodeRow[kindCol:], "thread") {
		t.Errorf("ARU table misaligned: kind column at %d in header, row reads %q", kindCol, nodeRow)
	}

	// Buffer table: the right-aligned items value ends where the header's
	// "items" ends.
	bufHdr, bufRow := rowAfter("buffer ", longBuffer+" ")
	itemsEnd := strings.Index(bufHdr, "items") + len("items")
	num := regexp.MustCompile(`\d+`).FindStringIndex(bufRow)
	if num == nil || num[1] != itemsEnd {
		t.Errorf("buffer table misaligned: items column ends at %d in header, first number spans %v in %q", itemsEnd, num, bufRow)
	}

	// Thread table: the state column of the long thread row starts at
	// the header's state column.
	thrHdr, thrRow := rowAfter("thread ", longThread+" ")
	stateCol := strings.Index(thrHdr, "state")
	if !strings.HasPrefix(thrRow[stateCol:], "stopped") {
		t.Errorf("thread table misaligned: state column at %d, row reads %q", stateCol, thrRow)
	}
}

// TestMetricsHTTPEndpoint exercises the opt-in observability server
// end to end on an ephemeral port: /metrics (Prometheus text with the
// right Content-Type), /metrics.json (decodes into FamilySnapshots that
// agree with the buffer's own Stats), /status (the WriteStatus view),
// and /health (JSON supervision snapshot). The pipeline does a fixed
// amount of work and parks, so every scrape sees the same quiescent
// numbers.
func TestMetricsHTTPEndpoint(t *testing.T) {
	rt := New(Options{
		Clock:       clock.NewReal(),
		ARU:         core.PolicyOff(),
		MetricsAddr: "127.0.0.1:0",
	})
	ch := rt.MustAddQueue("C", 0) // FIFO: every one of the n puts is consumed
	const n = 3
	consumed := make(chan struct{})
	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); ts <= n; ts++ {
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 64); err != nil {
				return err
			}
			ctx.Sync()
		}
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		for i := 0; i < n; i++ {
			if _, err := ctx.Get(ctx.Ins()[0]); err != nil {
				return err
			}
			ctx.Sync()
		}
		close(consumed)
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		rt.Stop()
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
	}()
	<-consumed

	addr := rt.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty after Start with MetricsAddr option set")
	}
	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return string(body), resp
	}

	// /metrics: Prometheus text, correct version header, and the
	// scrape's gather took a Snapshot so gauge families are current.
	prom, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 text format", ct)
	}
	for _, w := range []string{
		fmt.Sprintf(`%s{buffer="C"} %d`, buffer.MetricPuts, n),
		fmt.Sprintf(`%s{buffer="C"} %d`, MetricGets, n),
		fmt.Sprintf(`%s{thread="prod"} %d`, MetricIterations, n),
		MetricNodeCurrent + `{node="C"}`,
		MetricBufferItems + `{buffer="C"} 0`,
	} {
		if !strings.Contains(prom, w) {
			t.Errorf("/metrics lacks %q:\n%s", w, prom)
		}
	}

	// /metrics.json: the same gather as JSON, consistent with the
	// buffer's own counters.
	jsonBody, resp := get("/metrics.json")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/metrics.json Content-Type = %q", ct)
	}
	var fams []metrics.FamilySnapshot
	if err := json.Unmarshal([]byte(jsonBody), &fams); err != nil {
		t.Fatalf("/metrics.json does not decode: %v\n%s", err, jsonBody)
	}
	putsJSON := -1.0
	for _, f := range fams {
		if f.Name == buffer.MetricPuts {
			for _, s := range f.Series {
				if s.Labels["buffer"] == "C" {
					putsJSON = float64(s.Value)
				}
			}
		}
	}
	puts := rt.Buffer(ch).Stats().Puts
	if putsJSON != float64(puts) || puts != n {
		t.Errorf("puts: JSON endpoint %v, buffer Stats %d, want %d", putsJSON, puts, n)
	}

	// /status: the WriteStatus rendering, including the high-water
	// columns that only exist with metrics enabled.
	status, _ := get("/status")
	for _, w := range []string{"buffer", "hw-items", "prod", "cons"} {
		if !strings.Contains(status, w) {
			t.Errorf("/status lacks %q:\n%s", w, status)
		}
	}

	// /health: JSON supervision snapshot; both threads parked in Done
	// are healthy and running.
	healthBody, _ := get("/health")
	var health struct {
		Healthy bool `json:"healthy"`
		Threads []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"threads"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("/health does not decode: %v\n%s", err, healthBody)
	}
	if !health.Healthy || len(health.Threads) != 2 {
		t.Fatalf("/health = %+v, want healthy with 2 threads", health)
	}
	for _, th := range health.Threads {
		if th.State != "running" {
			t.Errorf("/health thread %s state = %q, want running", th.Name, th.State)
		}
	}
}

// TestChaosStatusHammer is the -race workout for the status paths: the
// TestSupervisionChaos graph (panicking source under a restart budget,
// permanently failing mid stage, cascading sink, silent staller) runs
// while hammer goroutines concurrently pound WriteStatus, Health,
// Snapshot, and the registry's two renderers. Afterwards the supervision
// counters must agree exactly with the known chaos schedule.
func TestChaosStatusHammer(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := New(Options{
		Clock:    fastClock(),
		ARU:      core.PolicyMin(),
		Metrics:  reg,
		StallTTL: 80 * time.Millisecond,
	})
	c1 := rt.MustAddChannel("C1", 0)
	c2 := rt.MustAddChannel("C2", 0)

	var produced vt.Timestamp
	var pmu sync.Mutex
	crashy := rt.MustAddThread("crashy-src", 0, func(ctx *Ctx) error {
		for !ctx.Stopped() {
			pmu.Lock()
			produced++
			ts := produced
			pmu.Unlock()
			if ts%4 == 0 {
				panic("chaos: injected source panic")
			}
			ctx.Compute(2 * time.Millisecond)
			if err := ctx.Put(ctx.Outs()[0], ts, nil, 100); err != nil {
				return err
			}
			ctx.Sync()
		}
		return nil
	}, WithRestartOnFailure(RestartPolicy{
		Backoff:     backoff.Backoff{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Factor: 2, Jitter: -1},
		MaxRestarts: 3,
		Seed:        1719,
	}))
	mid := rt.MustAddThread("mid", 0, func(ctx *Ctx) error {
		for n := 0; ; n++ {
			m, err := ctx.GetLatest(ctx.Ins()[0])
			if err != nil {
				return err
			}
			ctx.Compute(3 * time.Millisecond)
			if n == 2 {
				return errors.New("chaos: injected mid failure")
			}
			if err := ctx.Put(ctx.Outs()[0], m.TS, nil, 50); err != nil {
				return err
			}
			ctx.Sync()
		}
	})
	sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
		for {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			ctx.Compute(2 * time.Millisecond)
			ctx.Emit()
			ctx.Sync()
		}
	})
	staller := rt.MustAddThread("staller", 0, func(ctx *Ctx) error {
		for n := 0; n < 2; n++ {
			if _, err := ctx.GetLatest(ctx.Ins()[0]); err != nil {
				return err
			}
			ctx.Sync()
		}
		ctx.Park()
		return nil
	})
	crashy.MustOutput(c1)
	mid.MustInput(c1)
	mid.MustOutput(c2)
	sink.MustInput(c2)
	staller.MustInput(c1)

	// The hammer: every status surface, concurrently, for the whole run.
	// None of these goroutines participates in the virtual clock, so
	// they cannot distort the chaos schedule — only race against it.
	stop := make(chan struct{})
	var hwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		hwg.Add(1)
		go func(i int) {
			defer hwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Real-time throttle: the probes must interleave with the
				// chaos schedule, not take the CPU the clock's
				// participants run on by spinning.
				time.Sleep(200 * time.Microsecond)
				switch i {
				case 0:
					rt.WriteStatus(io.Discard)
				case 1:
					rt.Health()
					rt.Snapshot()
				case 2:
					reg.WriteProm(io.Discard)
					reg.WriteJSON(io.Discard)
				}
			}
		}(i)
	}
	err := rt.RunFor(time.Second)
	close(stop)
	hwg.Wait()
	if err == nil {
		t.Fatal("expected joined failures from Wait")
	}
	if !errors.Is(err, ErrPeerFailed) {
		t.Errorf("Wait error lacks the sink's ErrPeerFailed cascade: %v", err)
	}

	// The counters must agree exactly with the chaos schedule: the
	// source's body ran 4 times (initial + 3 restarts) and panicked on
	// every 4th produced item, so panics = 4, restarts = 3; three
	// threads failed permanently; the watchdog flagged the staller.
	counter := func(name, label, value string) int64 {
		return reg.Counter(name, "", metrics.Labels{label: value}).Value()
	}
	if got := counter(MetricPanics, "thread", "crashy-src"); got != 4 {
		t.Errorf("panics{crashy-src} = %d, want 4", got)
	}
	if got := counter(MetricRestarts, "thread", "crashy-src"); got != 3 {
		t.Errorf("restarts{crashy-src} = %d, want 3", got)
	}
	for _, th := range []string{"crashy-src", "mid", "sink"} {
		if got := counter(MetricFailures, "thread", th); got != 1 {
			t.Errorf("failures{%s} = %d, want 1", th, got)
		}
	}
	if got := counter(MetricNodeFaded, "node", "crashy-src"); got != 1 {
		t.Errorf("faded{crashy-src} = %d, want 1", got)
	}
	if got := counter(MetricStallEpisodes, "thread", "staller"); got < 1 {
		t.Errorf("stall episodes{staller} = %d, want >= 1", got)
	}
	if got := counter(MetricIterations, "thread", "crashy-src"); got < 1 {
		t.Errorf("iterations{crashy-src} = %d, want > 0", got)
	}
	if got := counter(MetricPeerFailed, "buffer", "C2"); got < 1 {
		t.Errorf("peer-failed wakeups{C2} = %d, want >= 1 (sink's cascade)", got)
	}
	if got := counter(MetricGets, "buffer", "C1"); got < 1 {
		t.Errorf("gets{C1} = %d, want > 0", got)
	}
}

// allocMetricsRuntime is allocRuntime with live metrics enabled. No
// background participant runs — AllocsPerRun counts process-wide
// mallocs, so a concurrent one would poison the pin. This is the
// metrics-ON half of the hot-path claim: every enabled event is a fixed
// number of atomic ops, zero allocations.
func allocMetricsRuntime() *Runtime {
	return New(Options{
		Clock:   clock.NewReal(),
		ARU:     core.PolicyOff(),
		Metrics: metrics.NewRegistry(),
	})
}

// TestCtxPutGetChannelAllocsMetricsOn re-pins the channel round trip
// with metrics enabled: still 0 allocs/op at the pooled floor.
func TestCtxPutGetChannelAllocsMetricsOn(t *testing.T) {
	rt := allocMetricsRuntime()
	ch := rt.MustAddChannel("C", 0)
	req := make(chan struct{})
	ack := make(chan struct{})
	got := make(chan float64, 1)

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		ts := vt.Timestamp(0)
		for {
			select {
			case <-ctx.Done():
				return nil
			case _, ok := <-req:
				if !ok {
					return nil
				}
			}
			ts++
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				return err
			}
			ack <- struct{}{}
		}
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		got <- testing.AllocsPerRun(allocRuns, func() {
			req <- struct{}{}
			<-ack
			if _, err := ctx.Get(in); err != nil {
				panic(err)
			}
		})
		close(req)
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(ch)
	cons.MustInput(ch)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	allocs := <-got
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("metrics-on channel put+get round trip: %.0f allocs/op, want 0 (pooled Item)", allocs)
	}
}

// TestCtxPutGetQueueAllocsMetricsOn re-pins both queue halves with
// metrics enabled: put stays at the 1 Item alloc, get at 0.
func TestCtxPutGetQueueAllocsMetricsOn(t *testing.T) {
	rt := allocMetricsRuntime()
	q := rt.MustAddQueue("Q", 0)
	putAllocs := make(chan float64, 1)
	getAllocs := make(chan float64, 1)
	start := make(chan struct{})

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		out := ctx.Outs()[0]
		ts := vt.Timestamp(0)
		putAllocs <- testing.AllocsPerRun(allocRuns, func() {
			ts++
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				panic(err)
			}
		})
		<-ctx.Done()
		return nil
	})
	cons := rt.MustAddThread("cons", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		<-start
		getAllocs <- testing.AllocsPerRun(allocRuns, func() {
			if _, err := ctx.Get(in); err != nil {
				panic(err)
			}
		})
		<-ctx.Done()
		return nil
	})
	prod.MustOutput(q)
	cons.MustInput(q)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	puts := <-putAllocs
	close(start)
	gets := <-getAllocs
	rt.Stop()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if puts != 1 {
		t.Errorf("metrics-on Ctx.Put on queue: %.0f allocs/op, want exactly 1 (the Item)", puts)
	}
	if gets != 0 {
		t.Errorf("metrics-on Ctx.Get on queue: %.0f allocs/op, want 0", gets)
	}
}
