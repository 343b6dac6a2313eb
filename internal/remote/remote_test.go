package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/vt"
)

func newTestServer(t *testing.T, comp core.Compressor, names ...string) *Server {
	t.Helper()
	if len(names) == 0 {
		names = []string{"frames"}
	}
	s, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Compressor: comp}, names...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Error("no channels must fail")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}, "a", "a"); err == nil {
		t.Error("duplicate channels must fail")
	}
	if _, err := NewServer(ServerConfig{Addr: "256.0.0.1:bad"}, "a"); err == nil {
		t.Error("bad address must fail")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	prod, err := DialProducer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := DialConsumer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	for ts := vt.Timestamp(1); ts <= 3; ts++ {
		if _, err := prod.Put(ts, []byte(fmt.Sprintf("frame-%d", ts)), 0); err != nil {
			t.Fatal(err)
		}
	}
	it, err := cons.GetLatest(core.Unknown)
	if err != nil {
		t.Fatal(err)
	}
	if it.TS != 3 || string(it.Payload) != "frame-3" {
		t.Fatalf("item = %+v", it)
	}
	if len(it.SkippedTS) != 2 {
		t.Fatalf("skipped = %v", it.SkippedTS)
	}
	if it.Size != int64(len("frame-3")) {
		t.Fatalf("size = %d", it.Size)
	}
}

func TestGetLatestBlocksAcrossTheWire(t *testing.T) {
	s := newTestServer(t, nil)
	cons, err := DialConsumer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	got := make(chan Item, 1)
	go func() {
		it, err := cons.GetLatest(core.Unknown)
		if err != nil {
			return
		}
		got <- it
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("GetLatest returned before any put")
	default:
	}

	prod, err := DialProducer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	if _, err := prod.Put(7, []byte("x"), 10); err != nil {
		t.Fatal(err)
	}
	select {
	case it := <-got:
		if it.TS != 7 {
			t.Fatalf("ts = %v", it.TS)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote GetLatest never woke")
	}
}

func TestTryGetLatest(t *testing.T) {
	s := newTestServer(t, nil)
	cons, _ := DialConsumer(s.Addr(), "frames")
	defer cons.Close()
	if _, ok, err := cons.TryGetLatest(core.Unknown); err != nil || ok {
		t.Fatalf("empty TryGetLatest = ok=%v err=%v", ok, err)
	}
	prod, _ := DialProducer(s.Addr(), "frames")
	defer prod.Close()
	prod.Put(1, []byte("a"), 0)
	it, ok, err := cons.TryGetLatest(core.Unknown)
	if err != nil || !ok || it.TS != 1 {
		t.Fatalf("TryGetLatest = %+v ok=%v err=%v", it, ok, err)
	}
}

func TestSTPPiggybackOverTheWire(t *testing.T) {
	s := newTestServer(t, core.Min)
	prod, _ := DialProducer(s.Addr(), "frames")
	defer prod.Close()
	consA, _ := DialConsumer(s.Addr(), "frames")
	defer consA.Close()
	consB, _ := DialConsumer(s.Addr(), "frames")
	defer consB.Close()

	// Before any consumer feedback, puts see Unknown.
	sum, err := prod.Put(1, []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Known() {
		t.Fatalf("summary before feedback = %v", sum)
	}

	// Consumers report 139ms and 337ms with their gets; the channel
	// compresses with min.
	if _, err := consA.GetLatest(core.STP(337 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := consB.GetLatest(core.STP(139 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	sum, err = prod.Put(2, []byte("y"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum != core.STP(139*time.Millisecond) {
		t.Fatalf("piggybacked summary = %v, want 139ms (min)", sum)
	}
	if prod.Summary() != sum {
		t.Fatal("Producer.Summary must cache the last piggyback")
	}
}

func TestSTPPiggybackMaxOperator(t *testing.T) {
	s := newTestServer(t, core.Max)
	prod, _ := DialProducer(s.Addr(), "frames")
	defer prod.Close()
	consA, _ := DialConsumer(s.Addr(), "frames")
	defer consA.Close()
	consB, _ := DialConsumer(s.Addr(), "frames")
	defer consB.Close()
	prod.Put(1, []byte("x"), 0)
	consA.GetLatest(core.STP(337 * time.Millisecond))
	consB.GetLatest(core.STP(544 * time.Millisecond))
	sum, err := prod.Put(2, []byte("y"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum != core.STP(544*time.Millisecond) {
		t.Fatalf("piggybacked summary = %v, want 544ms (max)", sum)
	}
}

func TestConsumerDetachReleasesFeedbackSlot(t *testing.T) {
	s := newTestServer(t, core.Min)
	prod, _ := DialProducer(s.Addr(), "frames")
	defer prod.Close()
	consSlow, _ := DialConsumer(s.Addr(), "frames")
	consFast, _ := DialConsumer(s.Addr(), "frames")
	defer consFast.Close()

	prod.Put(1, []byte("x"), 0)
	consSlow.GetLatest(core.STP(50 * time.Millisecond)) // fast rate dominates min
	consFast.GetLatest(core.STP(400 * time.Millisecond))
	if sum, _ := prod.Put(2, []byte("y"), 0); sum != core.STP(50*time.Millisecond) {
		t.Fatalf("summary = %v, want 50ms", sum)
	}
	consSlow.Close()
	// Allow the server to observe the disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sum, err := prod.Put(vt.Timestamp(time.Now().UnixNano()), []byte("z"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sum == core.STP(400*time.Millisecond) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detached consumer still in the vector: %v", sum)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStats(t *testing.T) {
	s := newTestServer(t, nil)
	prod, _ := DialProducer(s.Addr(), "frames")
	defer prod.Close()
	// One consumer attached so DGC retains until consumed.
	cons, _ := DialConsumer(s.Addr(), "frames")
	defer cons.Close()
	prod.Put(1, []byte("abcd"), 0)
	items, bytes, err := Stats(s.Addr(), "frames", 0)
	if err != nil {
		t.Fatal(err)
	}
	if items != 1 || bytes != 4 {
		t.Fatalf("stats = %d/%d", items, bytes)
	}
	if _, _, err := Stats(s.Addr(), "nope", 0); err == nil {
		t.Error("unknown channel stats must fail")
	}
}

// TestEndpointStatsHonoursCallTimeout points an endpoint tuned to a 50 ms
// CallTimeout at a listener that accepts and never answers: the
// occupancy query behind every Snapshot must give up within that bound
// and read zero, not wait out the 5 s default.
func TestEndpointStatsHonoursCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	e, err := NewEndpoint(buffer.Config{
		Name:   "silent",
		Addr:   ln.Addr().String(),
		Remote: buffer.RemoteTuning{CallTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st := e.Stats()
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("Stats took %v against a silent peer, want well under 1s (CallTimeout 50ms)", took)
	}
	if st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d from a silent peer, want 0/0", st.Items, st.Bytes)
	}
}

// rawConn returns the live wire connection behind a reconnector so the
// protocol-error tests can speak the protocol directly.
func rawConn(t *testing.T, r *Reconnector) *conn {
	t.Helper()
	c, err := r.ensure()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProtocolErrors(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := DialProducer(s.Addr(), "nope"); err == nil {
		t.Error("unknown channel attach must fail")
	}
	// Put on a consumer connection.
	cons, _ := DialConsumer(s.Addr(), "frames")
	defer cons.Close()
	cc := rawConn(t, cons.r)
	if _, err := cc.call(&Request{Op: OpPut, TS: 1}, time.Second); err == nil {
		t.Error("put on consumer connection must fail")
	}
	// Get on a producer connection.
	prod, _ := DialProducer(s.Addr(), "frames")
	defer prod.Close()
	pc := rawConn(t, prod.r)
	if _, err := pc.call(&Request{Op: OpGetLatest}, time.Second); err == nil {
		t.Error("get on producer connection must fail")
	}
	// Double attach.
	if _, err := pc.call(&Request{Op: OpAttachProducer, Channel: "frames"}, time.Second); err == nil {
		t.Error("double attach must fail")
	}
	// Unknown op.
	if _, err := pc.call(&Request{Op: Op(99)}, time.Second); err == nil {
		t.Error("unknown op must fail")
	}
	// Detach then reattach on the same wire is allowed.
	if _, err := pc.call(&Request{Op: OpDetach}, time.Second); err != nil {
		t.Error(err)
	}
	if _, err := pc.call(&Request{Op: OpAttachConsumer, Channel: "frames"}, time.Second); err != nil {
		t.Error(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := newTestServer(t, nil)
	cons, _ := DialConsumer(s.Addr(), "frames")
	defer cons.Close()
	errs := make(chan error, 1)
	go func() {
		_, err := cons.GetLatest(core.Unknown)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("expected an error after server close")
		}
		// Either the wire broke or ErrClosed surfaced; both are a clean
		// shutdown signal.
		if !errors.Is(err, ErrClosed) && err.Error() == "" {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client never unblocked after server close")
	}
}

func TestConcurrentRemotePipeline(t *testing.T) {
	s := newTestServer(t, core.Min, "stage1", "stage2")
	const n = 50

	var wg sync.WaitGroup
	// Producer → stage1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod, err := DialProducer(s.Addr(), "stage1")
		if err != nil {
			t.Error(err)
			return
		}
		defer prod.Close()
		for ts := vt.Timestamp(1); ts <= n; ts++ {
			if _, err := prod.Put(ts, []byte{byte(ts)}, 1000); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Relay stage1 → stage2.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cons, err := DialConsumer(s.Addr(), "stage1")
		if err != nil {
			t.Error(err)
			return
		}
		defer cons.Close()
		prod, err := DialProducer(s.Addr(), "stage2")
		if err != nil {
			t.Error(err)
			return
		}
		defer prod.Close()
		for {
			it, err := cons.GetLatest(core.STP(2 * time.Millisecond))
			if err != nil {
				return // closed
			}
			if _, err := prod.Put(it.TS, it.Payload, it.Size); err != nil {
				return
			}
			if it.TS == n {
				return
			}
		}
	}()
	// Final consumer on stage2 watches for the last timestamp.
	last := vt.None
	wg.Add(1)
	go func() {
		defer wg.Done()
		cons, err := DialConsumer(s.Addr(), "stage2")
		if err != nil {
			t.Error(err)
			return
		}
		defer cons.Close()
		for {
			it, err := cons.GetLatest(core.STP(2 * time.Millisecond))
			if err != nil {
				return
			}
			last = it.TS
			if it.TS == n {
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("remote pipeline stalled")
	}
	if last != n {
		t.Fatalf("final consumer saw %v, want %d", last, n)
	}
}
