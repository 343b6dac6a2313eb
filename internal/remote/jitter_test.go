package remote

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rand"
)

// redialSchedule drives one reconnector with an always-failing dialer on
// a manual clock, releasing each backoff sleep by exactly the expected
// delay, and returns the dial instants it observed.
func redialSchedule(t *testing.T, cfg DialConfig, delays []time.Duration) []time.Duration {
	t.Helper()
	clk := clock.NewManual()
	var mu sync.Mutex
	var attempts []time.Duration
	cfg.Clock = clk
	cfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		attempts = append(attempts, clk.Now())
		mu.Unlock()
		return nil, errors.New("connection refused")
	}
	r := newReconnector(cfg, func(c *conn) error { return nil })
	defer r.Close()

	done := make(chan error, 1)
	go func() { done <- r.connect() }()
	for _, d := range delays {
		waitSleepers(t, clk, 1)
		clk.Advance(d)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("connect = %v, want ErrDegraded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connect never exhausted its retry budget")
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]time.Duration(nil), attempts...)
}

// TestRedialJitterSeededPinned pins the jittered redial schedule a fixed
// DialConfig.Seed produces: the reconnector's jitter stream is the
// shared xorshift64 generator seeded directly from cfg.Seed, so the
// exact delays are derivable outside the wire layer, and two
// reconnectors with the same seed must replay byte-identical schedules —
// the differential-test property the old wall-time default seed broke.
func TestRedialJitterSeededPinned(t *testing.T) {
	cfg := DialConfig{
		Addr:    "test:0",
		Channel: "frames",
		Backoff: Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.2},
		Seed:    1719,
	}
	// Derive the expected jittered delays from the same stream.
	rng := rand.New(uint64(cfg.Seed))
	var delays []time.Duration
	for n := 0; n < defaultMaxRetries; n++ {
		delays = append(delays, cfg.Backoff.Delay(n, rng.Float64()))
	}
	want := []time.Duration{0}
	for i, d := range delays {
		want = append(want, want[i]+d)
	}

	first := redialSchedule(t, cfg, delays)
	if len(first) != len(want) {
		t.Fatalf("attempts = %v, want %v", first, want)
	}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("attempt %d at %v, want %v (schedule %v)", i, first[i], w, first)
		}
	}

	// A second reconnector with the same seed replays the identical
	// schedule: the jitter source is per-connection state, not a shared
	// process-global stream.
	second := redialSchedule(t, cfg, delays)
	if len(second) != len(first) {
		t.Fatalf("replay diverged: %v vs %v", second, first)
	}
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("replay attempt %d at %v, first run %v", i, second[i], first[i])
		}
	}
}

// TestDefaultSeedsAndTokens covers the unseeded paths: zero-seed configs
// draw distinct nonzero jitter seeds from the process stream (no two
// connections share a schedule by accident), and producer tokens are
// nonzero, odd-bit-tagged, 63-bit, and distinct.
func TestDefaultSeedsAndTokens(t *testing.T) {
	s1, s2 := defaultSeed(), defaultSeed()
	if s1 == 0 || s2 == 0 || s1 == s2 {
		t.Fatalf("default seeds = %d, %d: want distinct nonzero", s1, s2)
	}
	if cfg := (DialConfig{}).withDefaults(); cfg.Seed == 0 {
		t.Fatal("withDefaults left a zero jitter seed")
	}
	t1, t2 := newToken(), newToken()
	if t1&1 == 0 || t2&1 == 0 {
		t.Fatalf("tokens %d, %d missing the nonzero tag bit", t1, t2)
	}
	if t1>>63 != 0 || t2>>63 != 0 {
		t.Fatalf("tokens %d, %d use the top bit: a 10-byte uvarint on every put", t1, t2)
	}
	if t1 == t2 {
		t.Fatalf("consecutive tokens collided: %d", t1)
	}
}
