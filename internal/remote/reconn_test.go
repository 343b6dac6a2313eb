package remote

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/vt"
)

// TestBackoffSchedule pins the exact redial schedule Delay produces:
// capped exponential growth, and jitter bounds around every point.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Cap: 400 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond, // capped
		400 * time.Millisecond,
	}
	for n, w := range want {
		if got := b.Delay(n, 0.5); got != w {
			t.Errorf("Delay(%d) = %v, want %v", n, got, w)
		}
	}

	// Symmetric jitter scales each delay into [d·(1−j), d·(1+j)].
	j := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.2}
	for n := 0; n < 5; n++ {
		base := 100 * time.Millisecond << n // unjittered exponential
		if base > time.Second {
			base = time.Second
		}
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			d := j.Delay(n, u)
			lo := time.Duration(float64(base) * 0.8)
			hi := time.Duration(float64(base) * 1.2)
			if d < lo || d > hi {
				t.Errorf("Delay(%d, %v) = %v outside [%v, %v]", n, u, d, lo, hi)
			}
		}
		// The jitter sample maps linearly: u=0.5 is the midpoint.
		if d := j.Delay(n, 0.5); d != base {
			t.Errorf("Delay(%d, 0.5) = %v, want unjittered %v", n, d, base)
		}
	}

	// Zero-value Backoff picks up every default, including 0.2 jitter.
	var def Backoff
	if d := def.Delay(0, 0.5); d != backoff.DefaultBase {
		t.Errorf("default Delay(0, 0.5) = %v, want %v", d, backoff.DefaultBase)
	}
	if d := def.Delay(0, 1); d <= backoff.DefaultBase {
		t.Errorf("default jitter not applied: Delay(0, 1) = %v", d)
	}
}

// waitSleepers polls until n goroutines sleep on the manual clock.
func waitSleepers(t *testing.T, clk *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Sleepers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d sleepers", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRedialScheduleFakeClock drives a reconnector whose dialer always
// fails against a manual clock and pins the exact redial instants the
// configuration produces: attempts at 0, 100ms, 300ms, 700ms (base
// 100ms, factor 2, cap 400ms, no jitter), then ErrDegraded.
func TestRedialScheduleFakeClock(t *testing.T) {
	clk := clock.NewManual()
	var mu sync.Mutex
	var attempts []time.Duration
	cfg := DialConfig{
		Addr:    "test:0",
		Channel: "frames",
		Backoff: Backoff{Base: 100 * time.Millisecond, Cap: 400 * time.Millisecond, Factor: 2, Jitter: -1},
		Clock:   clk,
		Seed:    1,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			attempts = append(attempts, clk.Now())
			mu.Unlock()
			return nil, errors.New("connection refused")
		},
	}
	r := newReconnector(cfg, func(c *conn) error { return nil })
	defer r.Close()

	done := make(chan error, 1)
	go func() { done <- r.connect() }()

	// Release the three backoff sleeps by exactly their scheduled
	// delays; advancing precisely proves the schedule, not just the
	// order.
	for _, d := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		waitSleepers(t, clk, 1)
		clk.Advance(d)
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connect never exhausted its retry budget")
	}
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, buffer.ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded wrapping buffer.ErrDegraded", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond, 700 * time.Millisecond}
	if len(attempts) != len(want) {
		t.Fatalf("attempts = %v, want %v", attempts, want)
	}
	for i, w := range want {
		if attempts[i] != w {
			t.Fatalf("attempt %d at %v, want %v (schedule %v)", i, attempts[i], w, attempts)
		}
	}
}

// TestCloseInterruptsBackoff proves Close is prompt: a reconnector
// sleeping a backoff delay reports ErrClosed without waiting it out.
func TestCloseInterruptsBackoff(t *testing.T) {
	cfg := DialConfig{
		Addr:    "test:0",
		Channel: "frames",
		Backoff: Backoff{Base: time.Hour, Cap: time.Hour, Factor: 1, Jitter: -1},
		Seed:    1,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
	}
	r := newReconnector(cfg, func(c *conn) error { return nil })
	done := make(chan error, 1)
	go func() {
		_, _, err := r.call(&Request{Op: OpPut, TS: 1}, time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it enter the hour-long backoff... or fail trying
	r.Close()
	select {
	case err := <-done:
		// Either ErrClosed (observed the close) or ErrDegraded (budget
		// spent first) is acceptable; waiting out the hour is not.
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDegraded) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call survived Close inside backoff sleep")
	}
}

// TestIdempotentPutNoDoubleInsert injects a lost put response: the
// server applies the put, the reply never reaches the client, the client
// redials and retries. The server's (token, timestamp) dedup must
// acknowledge without inserting twice — proven by the channel's put
// counter.
func TestIdempotentPutNoDoubleInsert(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	ln, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Listener: ln}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A consumer keeps DGC from collecting, so occupancy is also exact.
	cons, err := DialConsumer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	prod, err := DialProducerConfig(DialConfig{
		Addr: s.Addr(), Channel: "frames",
		Backoff: Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, Jitter: -1},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	if _, err := prod.Put(1, []byte("a"), 0); err != nil {
		t.Fatal(err)
	}

	// Drop the server's next write: put 2 is applied, its response is
	// lost, and the connection is severed mid-stream.
	ctl.DropWriteAfter(0)
	sum, err := prod.Put(2, []byte("b"), 0)
	if !errors.Is(err, ErrReattached) || !errors.Is(err, buffer.ErrReattached) {
		t.Fatalf("retried put err = %v, want informational ErrReattached", err)
	}
	if ctl.Injected() == 0 {
		t.Fatal("no fault was injected; the test proved nothing")
	}
	if prod.Reattaches() != 1 {
		t.Fatalf("reattaches = %d, want 1", prod.Reattaches())
	}
	_ = sum // the summary accompanying ErrReattached is valid (possibly Unknown here)

	// Oracle: exactly two puts were applied — the retry did not
	// double-insert.
	ch := s.Channel("frames")
	if puts := ch.Stats().Puts; puts != 2 {
		t.Fatalf("server puts = %d, want 2 (idempotent retry)", puts)
	}
	if items := ch.Stats().Items; items != 2 {
		t.Fatalf("occupancy = %d items, want 2", items)
	}

	// The healed connection keeps working without further retries.
	if _, err := prod.Put(3, []byte("c"), 0); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	if puts := ch.Stats().Puts; puts != 3 {
		t.Fatalf("server puts = %d, want 3", puts)
	}
}

// TestConsumerReattachReplaysWindow proves a consumer's re-attach
// replays the channel name (and window width) so the server-side session
// is rebuilt: after a severed wire, GetLatest keeps serving.
func TestConsumerReattachReplaysAttachment(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(42))
	ln, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Listener: ln}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	prod, err := DialProducer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	// A second, idle consumer keeps the collector from freeing items the
	// faulted consumer saw in its severed session.
	keeper, err := DialConsumer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	cons, err := DialConsumerConfig(DialConfig{
		Addr: s.Addr(), Channel: "frames",
		Backoff: Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond, Jitter: -1},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	if _, err := prod.Put(1, []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if it, err := cons.GetLatest(0); err != nil || it.TS != 1 {
		t.Fatalf("first get = %+v, %v", it, err)
	}
	if _, err := prod.Put(2, []byte("b"), 0); err != nil {
		t.Fatal(err)
	}

	// Drop the server's next write: the get's response is lost and the
	// wire severed mid-call. The consumer redials, replays its
	// attachment (channel name and window width), and retries; the
	// fresh session's guarantee restarts, so the freshest item is served
	// again — get-latest discipline makes the replay safe.
	ctl.DropWriteAfter(0)
	it, err := cons.GetLatest(0)
	if err != nil && !errors.Is(err, ErrReattached) {
		t.Fatalf("get across fault = %v", err)
	}
	if it.TS != vt.Timestamp(2) {
		t.Fatalf("ts = %v, want 2", it.TS)
	}
	if cons.Reattaches() != 1 {
		t.Fatalf("consumer reattaches = %d, want 1", cons.Reattaches())
	}
	if ctl.Injected() == 0 {
		t.Fatal("no fault was injected; the test proved nothing")
	}
}
