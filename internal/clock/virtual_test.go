package clock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSingleSleeperAdvances(t *testing.T) {
	v := NewVirtual()
	v.Add(1)
	defer v.Add(-1)
	start := time.Now()
	v.Sleep(5 * time.Hour) // virtual hours cost ~nothing
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("virtual sleep took %v wall time", wall)
	}
	if got := v.Now(); got != 5*time.Hour {
		t.Fatalf("Now = %v, want 5h", got)
	}
}

func TestVirtualSleepNonPositive(t *testing.T) {
	v := NewVirtual()
	v.Add(1)
	defer v.Add(-1)
	v.Sleep(0)
	v.Sleep(-time.Second)
	if v.Now() != 0 {
		t.Fatal("non-positive sleeps must not advance time")
	}
}

func TestVirtualSleepersWakeInDeadlineOrder(t *testing.T) {
	v := NewVirtual()
	v.Add(1) // main participates

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		v.Add(1)
		go func(id int, d time.Duration) {
			defer wg.Done()
			defer v.Add(-1)
			v.Sleep(d)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}(i, d)
	}
	// Main sleeps past everyone; all three wake strictly before it.
	v.Sleep(time.Second)
	v.Add(-1)
	wg.Wait()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("wake order = %v, want [1 2 0]", order)
	}
	if v.Now() != time.Second {
		t.Fatalf("Now = %v", v.Now())
	}
}

func TestVirtualParkAllowsAdvance(t *testing.T) {
	v := NewVirtual()
	tk := NewTicket()
	var woke time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	// Consumer parks on a ticket, giving up its turn.
	v.Go(func() {
		defer wg.Done()
		v.Park(tk)
		woke = v.Now()
	})
	// Producer sleeps 10ms of virtual time, then readies the consumer.
	v.Go(func() {
		defer wg.Done()
		v.Sleep(10 * time.Millisecond) // must advance despite the parked consumer
		v.Ready(tk)
	})

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: clock did not advance past a parked participant")
	}
	if woke != 10*time.Millisecond || v.Now() != 10*time.Millisecond {
		t.Fatalf("woke at %v, Now = %v", woke, v.Now())
	}
}

func TestVirtualManyConcurrentSleepCycles(t *testing.T) {
	v := NewVirtual()
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		v.Add(1)
		go func(w int) {
			defer wg.Done()
			defer v.Add(-1)
			for r := 0; r < rounds; r++ {
				v.Sleep(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("virtual clock stalled")
	}
	// The slowest worker slept 8ms × 200 = 1.6s of virtual time; the
	// clock must have reached at least that.
	if got := v.Now(); got < 1600*time.Millisecond {
		t.Fatalf("Now = %v, want ≥ 1.6s", got)
	}
}

func TestVirtualActiveAccounting(t *testing.T) {
	v := NewVirtual()
	running := func() int {
		v.mu.Lock()
		defer v.mu.Unlock()
		return v.running
	}
	if running() != 0 {
		t.Fatal("fresh clock must be idle")
	}
	v.Add(2)
	if running() != 2 {
		t.Fatalf("running = %d", running())
	}
	// A participant started with Go waits its turn: it is queued, not
	// running, while the two registered participants hold the clock.
	done := make(chan struct{})
	v.Go(func() { close(done) })
	if running() != 2 {
		t.Fatalf("running after Go = %d", running())
	}
	v.Add(-2)
	<-done
	if got := running(); got > 1 {
		t.Fatalf("running = %d after the queued participant got the turn", got)
	}
}

func TestVirtualTimeIsMonotone(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Duration
	for w := 0; w < 4; w++ {
		wg.Add(1)
		v.Add(1)
		go func() {
			defer wg.Done()
			defer v.Add(-1)
			for r := 0; r < 100; r++ {
				v.Sleep(time.Millisecond)
				now := v.Now()
				mu.Lock()
				if now < last {
					t.Errorf("time went backwards: %v after %v", now, last)
				}
				if now > last {
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestVirtualSameDeadlineRunsInRegistrationOrder: sleepers that share a
// deadline run one at a time, in the order they went to sleep, whatever
// the number of processors. The order slice is deliberately unguarded:
// the race detector checks that the clock runs one participant at a time.
func TestVirtualSameDeadlineRunsInRegistrationOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for round := 0; round < 20; round++ {
		v := NewVirtual()
		const n = 16
		var order []int
		var wg sync.WaitGroup
		wg.Add(n)
		v.Add(1) // hold the turn until every participant is queued
		for i := 0; i < n; i++ {
			v.Go(func() {
				defer wg.Done()
				v.Sleep(10 * time.Millisecond)
				order = append(order, i)
				v.Sleep(10 * time.Millisecond)
				order = append(order, i)
			})
		}
		v.Add(-1)
		wg.Wait()
		for k, id := range order {
			if id != k%n {
				t.Fatalf("round %d: run order %v, want 0..%d twice", round, order, n-1)
			}
		}
	}
}

// TestVirtualReadiedWaiterRunsBeforeTimeAdvances: a waiter readied at
// time t runs at t, even when its waker sleeps straight away.
func TestVirtualReadiedWaiterRunsBeforeTimeAdvances(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for round := 0; round < 200; round++ {
		v := NewVirtual()
		tk := NewTicket()
		var woke time.Duration
		var wg sync.WaitGroup
		wg.Add(2)
		v.Go(func() {
			defer wg.Done()
			v.Park(tk)
			woke = v.Now()
		})
		v.Go(func() {
			defer wg.Done()
			v.Sleep(time.Millisecond)
			v.Ready(tk)
			v.Sleep(time.Millisecond)
		})
		wg.Wait()
		if woke != time.Millisecond {
			t.Fatalf("round %d: readied waiter ran at %v, want 1ms", round, woke)
		}
	}
}

// TestVirtualCoroutineAndGoroutineAlternate: a Go participant (a
// coroutine) and an Add participant (a goroutine woken by a channel) hand
// the turn back and forth, and never run at once. The turns counter is
// deliberately unguarded, so under -race it also checks that the turn
// reaches the goroutine only after the coroutine has yielded.
func TestVirtualCoroutineAndGoroutineAlternate(t *testing.T) {
	const n = 10000
	v := NewVirtual()
	goTk, addTk := NewTicket(), NewTicket()
	var inside atomic.Int32
	turns := 0
	turn := func() {
		if inside.Add(1) != 1 {
			t.Error("two participants ran at once")
		}
		turns++
		inside.Add(-1)
	}
	done := make(chan struct{})
	v.Add(1)
	v.Go(func() {
		defer close(done)
		for i := 0; i < n; i++ {
			v.Park(goTk)
			turn()
			v.Ready(addTk)
		}
	})
	for i := 0; i < n; i++ {
		v.Ready(goTk)
		v.Park(addTk)
		turn()
	}
	v.Add(-1)
	<-done
	if turns != 2*n {
		t.Fatalf("turns = %d, want %d", turns, 2*n)
	}
}

// TestVirtualReadyBeforeParkOnCoroutine: a ticket readied from outside
// while a Go participant still holds the turn, before it parks, wakes it
// in its place in the run queue.
func TestVirtualReadyBeforeParkOnCoroutine(t *testing.T) {
	v := NewVirtual()
	tk := NewTicket()
	var order []string
	var wg sync.WaitGroup
	wg.Add(2)
	v.Add(1)
	v.Go(func() {
		defer wg.Done()
		readied := make(chan struct{})
		go func() { v.Ready(tk); close(readied) }()
		<-readied
		v.Park(tk)
		order = append(order, "parker")
	})
	v.Go(func() {
		defer wg.Done()
		order = append(order, "queued")
	})
	v.Add(-1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a Ready that landed before the Park was lost")
	}
	if len(order) != 2 || order[0] != "queued" || order[1] != "parker" {
		t.Fatalf("order = %v, want [queued parker]", order)
	}
}

// TestVirtualAddWaitsForCoroutineTurn: Add(1) from outside while a Go
// participant holds the turn returns only once that participant sleeps.
func TestVirtualAddWaitsForCoroutineTurn(t *testing.T) {
	v := NewVirtual()
	var slept atomic.Bool
	holding := make(chan struct{})
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		close(holding)
		time.Sleep(20 * time.Millisecond) // wall time: keeps the turn
		slept.Store(true)
		v.Sleep(time.Millisecond)
	})
	<-holding
	v.Add(1)
	if !slept.Load() {
		t.Fatal("Add(1) returned while a coroutine held the turn")
	}
	if now := v.Now(); now != 0 {
		t.Fatalf("Add(1) returned at %v, want 0", now)
	}
	v.Add(-1)
	<-done
	if now := v.Now(); now != time.Millisecond {
		t.Fatalf("Now = %v, want 1ms", now)
	}
}

// TestVirtualMixedScheduleGolden pins the turn order of a schedule that
// mixes Go and Add participants, equal deadlines and Park/Ready. The
// golden list is the order the clock gave before participants started
// with Go became coroutines; the log is unguarded, so -race also checks
// that one participant runs at a time.
func TestVirtualMixedScheduleGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	want := []string{
		"main@1ms", "d@1ms", "c@2ms", "c@2ms", "a@2ms", "b@2ms", "b@2ms",
		"b@3ms", "d@4ms", "c@4ms", "a@4ms", "main@5ms", "a@6ms",
	}
	for round := 0; round < 20; round++ {
		v := NewVirtual()
		tkB, tkD := NewTicket(), NewTicket()
		var got []string
		log := func(name string) {
			got = append(got, fmt.Sprintf("%s@%v", name, v.Now()))
		}
		var wg sync.WaitGroup
		wg.Add(4)
		v.Add(1) // main
		v.Go(func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				v.Sleep(2 * time.Millisecond)
				log("a")
			}
		})
		v.Go(func() {
			defer wg.Done()
			v.Sleep(2 * time.Millisecond)
			log("b")
			v.Park(tkB)
			log("b")
			v.Sleep(time.Millisecond)
			log("b")
		})
		v.Add(1)
		go func() {
			defer wg.Done()
			defer v.Add(-1)
			v.Sleep(2 * time.Millisecond)
			log("c")
			v.Ready(tkB)
			log("c")
			v.Sleep(2 * time.Millisecond)
			log("c")
		}()
		v.Go(func() {
			defer wg.Done()
			v.Park(tkD)
			log("d")
			v.Sleep(3 * time.Millisecond)
			log("d")
		})
		v.Sleep(time.Millisecond)
		log("main")
		v.Ready(tkD)
		v.Sleep(4 * time.Millisecond)
		log("main")
		v.Add(-1)
		wg.Wait()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: turn order\n%v\nwant\n%v", round, got, want)
		}
	}
}

// TestVirtualLeavesNoGoroutines: once every participant has returned, no
// dispatcher or coroutine goroutine is left behind.
func TestVirtualLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	v := NewVirtual()
	tk := NewTicket()
	var wg sync.WaitGroup
	v.Add(1)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			if i == 0 {
				v.Park(tk)
				return
			}
			for r := 0; r < 10; r++ {
				v.Sleep(time.Duration(i) * time.Millisecond)
			}
		})
	}
	v.Sleep(time.Second)
	v.Ready(tk)
	v.Add(-1)
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
