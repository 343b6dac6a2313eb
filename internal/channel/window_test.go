package channel

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/vt"
)

func newWindowChannel(t *testing.T, width int) *Channel {
	t.Helper()
	c := New(Config{Name: "w", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	if err := c.AttachConsumer(consConn, width); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWindowDeliversTrailingItems(t *testing.T) {
	c := newWindowChannel(t, 3)
	for ts := vt.Timestamp(1); ts <= 5; ts++ {
		put(t, c, ts, 10)
	}
	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 5 {
		t.Fatalf("head = %v", res.Item.TS)
	}
	// Window of 3: head 5 plus trailing 3, 4.
	if len(res.Window) != 2 || res.Window[0].TS != 3 || res.Window[1].TS != 4 {
		t.Fatalf("window = %v", res.Window)
	}
	// Items 1, 2 are skipped (outside the window).
	if len(res.Skipped) != 2 || res.Skipped[0].TS != 1 || res.Skipped[1].TS != 2 {
		t.Fatalf("skipped = %v", res.Skipped)
	}
	// DGC frees ts ≤ guarantee = 3: items 1, 2, 3 gone; 4, 5 retained
	// for the next window.
	if n := c.Stats().Items; n != 2 {
		t.Fatalf("occupancy = %d, want 2 retained", n)
	}
}

func TestWindowSlidesAcrossCalls(t *testing.T) {
	c := newWindowChannel(t, 3)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	if res, err := c.Get(consConn); err != nil || res.Item.TS != 2 {
		t.Fatalf("first head: %v %v", res.Item.TS, err)
	}
	put(t, c, 3, 10)
	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 3 {
		t.Fatalf("second head = %v", res.Item.TS)
	}
	// Window covers 1, 2 (both still live: guarantee after first call
	// was 0).
	if len(res.Window) != 2 || res.Window[0].TS != 1 || res.Window[1].TS != 2 {
		t.Fatalf("window = %v", res.Window)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("skipped = %v", res.Skipped)
	}
}

func TestWindowWidthOnePreservesOldSemantics(t *testing.T) {
	c := newWindowChannel(t, 1)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Window) != 0 {
		t.Fatalf("width-1 window must be empty, got %v", res.Window)
	}
	if n := c.Stats().Items; n != 0 {
		t.Fatalf("occupancy = %d, want full collection", n)
	}
}

func TestWindowPartiallyFilled(t *testing.T) {
	c := newWindowChannel(t, 4)
	put(t, c, 1, 10)
	res, err := c.Get(consConn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Item.TS != 1 || len(res.Window) != 0 || len(res.Skipped) != 0 {
		t.Fatalf("sparse window: %+v", res)
	}
}

func TestWindowTryGetLatest(t *testing.T) {
	c := newWindowChannel(t, 2)
	if _, ok, err := c.TryGet(consConn); err != nil || ok {
		t.Fatal("empty try must miss")
	}
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	res, ok, err := c.TryGet(consConn)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if res.Item.TS != 2 || len(res.Window) != 1 || res.Window[0].TS != 1 {
		t.Fatalf("try window: %+v", res)
	}
	// Same head is not re-delivered.
	if _, ok, _ := c.TryGet(consConn); ok {
		t.Fatal("stale head re-delivered")
	}
}

func TestWindowMixedConsumers(t *testing.T) {
	// A width-1 consumer and a width-3 consumer share the channel; the
	// window consumer's retention governs collection.
	c := New(Config{Name: "w", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
	c.AttachProducer(prodConn)
	c.AttachConsumer(consConn, 1)
	c.AttachConsumer(consConn2, 3)
	for ts := vt.Timestamp(1); ts <= 5; ts++ {
		put(t, c, ts, 10)
	}
	if _, err := c.Get(consConn); err != nil { // plain: guarantee 5
		t.Fatal(err)
	}
	if n := c.Stats().Items; n != 5 {
		t.Fatalf("window consumer must retain everything, occupancy %d", n)
	}
	if _, err := c.Get(consConn2); err != nil { // window: guarantee 3
		t.Fatal(err)
	}
	// min(5, 3) = 3 → items 1..3 freed, 4, 5 retained.
	if n := c.Stats().Items; n != 2 {
		t.Fatalf("occupancy = %d, want 2", n)
	}
}

func TestAttachConsumerWindowValidation(t *testing.T) {
	c := New(Config{Name: "w", Clock: clock.NewReal()})
	if err := c.AttachConsumer(graph.ConnID(1), 0); !errors.Is(err, buffer.ErrUnsupported) {
		t.Fatalf("width 0: %v, want ErrUnsupported", err)
	}
}

// TestWindowTryGetLatestWideWindow exercises the non-blocking path with a
// window wider than the basic test's width 2: window membership, skip
// marking, guarantee trailing, and retention must all match GetLatest.
func TestWindowTryGetLatestWideWindow(t *testing.T) {
	c := newWindowChannel(t, 3)
	for ts := vt.Timestamp(1); ts <= 5; ts++ {
		put(t, c, ts, 10)
	}
	res, ok, err := c.TryGet(consConn)
	if err != nil || !ok {
		t.Fatalf("try must hit: ok=%v err=%v", ok, err)
	}
	if res.Item.TS != 5 {
		t.Fatalf("head = %v, want 5", res.Item.TS)
	}
	if len(res.Window) != 2 || res.Window[0].TS != 3 || res.Window[1].TS != 4 {
		t.Fatalf("window = %+v, want trailing [3 4]", res.Window)
	}
	if len(res.Skipped) != 2 || res.Skipped[0].TS != 1 || res.Skipped[1].TS != 2 {
		t.Fatalf("skipped = %+v, want [1 2]", res.Skipped)
	}
	// The guarantee trails the head by width-1: head 5 → guarantee 3.
	if g := c.Guarantee(consConn); g != 3 {
		t.Fatalf("guarantee = %v, want 3", g)
	}
	// DGC frees ts ≤ 3; items 4, 5 are retained for the next window.
	if n := c.Stats().Items; n != 2 {
		t.Fatalf("occupancy = %d, want 2 retained", n)
	}
	// Nothing newer than the last head: miss without state change.
	if _, ok, _ := c.TryGet(consConn); ok {
		t.Fatal("stale head re-delivered")
	}
	if g := c.Guarantee(consConn); g != 3 {
		t.Fatalf("miss moved the guarantee to %v", g)
	}
}

// TestWindowTryGetLatestSlides checks the retained trailing items appear
// in the next non-blocking window, i.e. try-gets slide exactly like
// blocking gets.
func TestWindowTryGetLatestSlides(t *testing.T) {
	c := newWindowChannel(t, 3)
	for ts := vt.Timestamp(1); ts <= 5; ts++ {
		put(t, c, ts, 10)
	}
	if _, ok, err := c.TryGet(consConn); err != nil || !ok {
		t.Fatal("first try must hit")
	}
	put(t, c, 6, 10)
	res, ok, err := c.TryGet(consConn)
	if err != nil || !ok {
		t.Fatal("second try must hit")
	}
	if res.Item.TS != 6 {
		t.Fatalf("head = %v, want 6", res.Item.TS)
	}
	// 4 and 5 were retained by the first call's trailing guarantee and
	// now form the window; nothing was skipped.
	if len(res.Window) != 2 || res.Window[0].TS != 4 || res.Window[1].TS != 5 {
		t.Fatalf("window = %+v, want [4 5]", res.Window)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("skipped = %+v, want none", res.Skipped)
	}
	if g := c.Guarantee(consConn); g != 4 {
		t.Fatalf("guarantee = %v, want 4", g)
	}
}

// TestWindowTryGetLatestSparse: a try-get with fewer live items than the
// window width delivers a partial window, and the guarantee still trails
// by width-1 (going negative territory is fine — vt.None anchors it).
func TestWindowTryGetLatestSparse(t *testing.T) {
	c := newWindowChannel(t, 4)
	put(t, c, 1, 10)
	put(t, c, 2, 10)
	res, ok, err := c.TryGet(consConn)
	if err != nil || !ok {
		t.Fatal("try must hit")
	}
	if res.Item.TS != 2 || len(res.Window) != 1 || res.Window[0].TS != 1 {
		t.Fatalf("sparse try: head=%v window=%+v", res.Item.TS, res.Window)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("skipped = %+v", res.Skipped)
	}
	// Both items stay live: guarantee 2-4+1 = -1 < 1.
	if n := c.Stats().Items; n != 2 {
		t.Fatalf("occupancy = %d, want 2", n)
	}
}
