package remote

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vt"
)

// dialRaw opens a bare protocol connection (no Reconnector) so tests
// can speak the wire format directly.
func dialRaw(t *testing.T, addr string) *conn {
	t.Helper()
	nc, err := dialTCP(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return newConn(nc, time.Second)
}

// waitDedupEntries polls until the hosted channel's lastPut map holds
// exactly n entries (detach runs on the server's connection goroutine,
// after the client's Close returns).
func waitDedupEntries(t *testing.T, h *hosted, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.dedupEntries() != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d dedup entries (have %d)", n, h.dedupEntries())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDedupStatePrunedOnDetach is the lastPut-leak regression test: the
// per-producer dedup state must be reclaimed when the producer's last
// session detaches, so attach→put→detach cycles leave the map empty
// instead of growing it by one entry per producer forever.
func TestDedupStatePrunedOnDetach(t *testing.T) {
	s := newTestServer(t, nil)
	h, ok := s.lookup("frames")
	if !ok {
		t.Fatal("hosted channel missing")
	}

	for cycle := 1; cycle <= 5; cycle++ {
		prod, err := DialProducer(s.Addr(), "frames")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prod.Put(vt.Timestamp(cycle), []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
		if h.dedupEntries() != 1 {
			t.Fatalf("cycle %d: dedup entries = %d while attached, want 1", cycle, h.dedupEntries())
		}
		prod.Close()
		waitDedupEntries(t, h, 0)
	}
}

// TestDedupStateSurvivesReattach checks the refcount half of the prune:
// a producer that redials under the same token (the crash-recovery
// path) must NOT lose its dedup entry while any of its sessions remains
// attached — pruning only fires when the token's last session detaches.
func TestDedupStateSurvivesReattach(t *testing.T) {
	s := newTestServer(t, nil)
	h, _ := s.lookup("frames")

	prod, err := DialProducer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	if _, err := prod.Put(1, []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	waitDedupEntries(t, h, 1)

	// A second session attaches under the same token (what a reconnect
	// replay does), then detaches: the entry must survive because the
	// first session is still attached.
	c2 := dialRaw(t, s.Addr())
	token := h.anyToken(t)
	if _, err := c2.call(&Request{Op: OpAttachProducer, Channel: "frames", Token: token}, time.Second); err != nil {
		t.Fatal(err)
	}
	c2.close()
	time.Sleep(20 * time.Millisecond) // let the server process the detach
	if h.dedupEntries() != 1 {
		t.Fatalf("dedup entry pruned while a session is still attached (entries = %d)", h.dedupEntries())
	}
}

// anyToken returns the single registered producer token (test helper).
func (h *hosted) anyToken(t *testing.T) uint64 {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for tok := range h.tokens {
		return tok
	}
	t.Fatal("no producer token registered")
	return 0
}

// TestServerDedupHitCounter checks ServerConfig.Metrics wiring: a
// replayed put (same token, same timestamp, Retry set) is answered from
// the dedup state and counted on aru_remote_dedup_hits_total.
func TestServerDedupHitCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Metrics: reg}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialRaw(t, s.Addr())
	defer c.close()
	token := newToken()
	if _, err := c.call(&Request{Op: OpAttachProducer, Channel: "frames", Token: token}, time.Second); err != nil {
		t.Fatal(err)
	}
	put := &Request{Op: OpPut, TS: 7, Payload: []byte("x"), Size: 1, Token: token}
	if _, err := c.call(put, time.Second); err != nil {
		t.Fatal(err)
	}
	// Replay the identical put as a retry: the server must answer OK
	// without re-applying, and count the dedup hit.
	put.Retry = true
	if _, err := c.call(put, time.Second); err != nil {
		t.Fatalf("replayed put rejected: %v", err)
	}
	hits := reg.Counter(MetricDedupHits, "", metrics.Labels{"channel": "frames"})
	if hits.Value() != 1 {
		t.Fatalf("dedup hits = %d, want 1", hits.Value())
	}
}
