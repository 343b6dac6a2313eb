package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealMonotone(t *testing.T) {
	c := NewReal()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("real clock must advance: %v then %v", a, b)
	}
}

func TestRealSleepNonPositive(t *testing.T) {
	c := NewReal()
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("non-positive Sleep must return immediately")
	}
}

func TestScaledSpeedsUpSleep(t *testing.T) {
	base := NewManual()
	c := NewScaled(base, 10)

	done := make(chan struct{})
	go func() {
		c.Sleep(100 * time.Millisecond) // should need only 10ms of base time
		close(done)
	}()
	waitForSleepers(t, base, 1)
	base.Advance(10 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("scaled Sleep(100ms) at 10x should finish after 10ms base time")
	}
}

func TestScaledNow(t *testing.T) {
	base := NewManual()
	c := NewScaled(base, 20)
	base.Advance(5 * time.Millisecond)
	if got := c.Now(); got != 100*time.Millisecond {
		t.Fatalf("scaled Now = %v, want 100ms", got)
	}
}

func TestScaledRejectsBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScaled(_, 0) must panic")
		}
	}()
	NewScaled(NewManual(), 0)
}

func TestManualSleepReleasesInOrder(t *testing.T) {
	m := NewManual()
	var mu sync.Mutex
	var woke []int

	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		go func(id int, d time.Duration) {
			defer wg.Done()
			m.Sleep(d)
			mu.Lock()
			woke = append(woke, id)
			mu.Unlock()
		}(i, d)
	}
	waitForSleepers(t, m, 3)

	m.Advance(10 * time.Millisecond) // releases sleeper 1
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(woke)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for first sleeper to wake")
		}
		time.Sleep(100 * time.Microsecond)
	}
	mu.Lock()
	if woke[0] != 1 {
		t.Fatalf("after 10ms woke = %v, want [1]", woke)
	}
	mu.Unlock()

	m.Advance(20 * time.Millisecond) // releases the rest
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(woke) != 3 {
		t.Fatalf("woke = %v, want all three", woke)
	}
}

func TestManualAdvanceBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) must panic")
		}
	}()
	NewManual().Advance(-1)
}

func TestManualSleepZeroReturns(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep(0) must not block")
	}
}

// TestSleepOr: done cuts a sleep short on a real clock and on a scaled
// one over a real base; a manual clock sleeps the whole duration, and
// the result reports whether done was closed.
func TestSleepOr(t *testing.T) {
	done := make(chan struct{})
	close(done)
	for _, c := range []Clock{NewReal(), NewScaled(NewReal(), 20)} {
		start := time.Now()
		if !SleepOr(c, time.Hour, done) {
			t.Fatalf("%T: SleepOr with done closed reported not stopped", c)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%T: SleepOr took %v with done closed", c, d)
		}
	}
	if SleepOr(NewScaled(NewReal(), 1000), time.Millisecond, make(chan struct{})) {
		t.Fatal("SleepOr reported stopped with done open")
	}

	m := NewManual()
	open := make(chan struct{})
	res := make(chan bool)
	go func() { res <- SleepOr(m, time.Second, open) }()
	for m.Sleepers() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(open) // a manual sleep is not interrupted ...
	select {
	case <-res:
		t.Fatal("SleepOr on a manual clock returned before Advance")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(time.Second)
	if !<-res { // ... but reports done once the clock releases it
		t.Fatal("SleepOr on a manual clock did not report done after Advance")
	}
}

func TestStopwatch(t *testing.T) {
	m := NewManual()
	sw := NewStopwatch(m)
	m.Advance(7 * time.Millisecond)
	if got := sw.Elapsed(); got != 7*time.Millisecond {
		t.Fatalf("Elapsed = %v", got)
	}
	if got := sw.Reset(); got != 7*time.Millisecond {
		t.Fatalf("Reset = %v", got)
	}
	m.Advance(3 * time.Millisecond)
	if got := sw.Elapsed(); got != 3*time.Millisecond {
		t.Fatalf("Elapsed after Reset = %v", got)
	}
}

// waitForSleepers polls until n goroutines are blocked in m.Sleep.
func waitForSleepers(t *testing.T, m *Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.Sleepers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sleepers (have %d)", n, m.Sleepers())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
