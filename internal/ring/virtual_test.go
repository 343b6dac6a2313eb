package ring

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/vt"
)

// delivery is one item the consumer took: its timestamp and the virtual
// time it arrived.
type delivery struct {
	ts vt.Timestamp
	at time.Duration
}

// virtualOutcome is what one run of runVirtual observed.
type virtualOutcome struct {
	got     []delivery
	prodErr []error // each producer's final error (nil: all n put)
	consErr error   // the error that ended the consumer
}

// runVirtual drives a capacity-8 ring on a fresh clock.Virtual. Each of
// producers puts n items one virtual millisecond apart and a single
// consumer takes one every 3 ms, so producers park on a full ring and the
// consumer parks on the empty ring at the start. The last producer to
// finish closes the ring. When stop is non-nil, one more participant
// calls it at virtual time stopAt, after checking that a producer is
// parked on capacity right then. The run must finish within 10 s of wall
// time: a wait the clock cannot see hangs it.
func runVirtual(t *testing.T, producers, n int, stopAt time.Duration, stop func(*Ring)) virtualOutcome {
	t.Helper()
	v := clock.NewVirtual()
	r, err := New(buffer.Config{Name: "R", Node: 1, Capacity: 8, Clock: v, Pool: buffer.NewItemPool()})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		if err := r.AttachProducer(prodConn + graph.ConnID(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AttachConsumer(consConn, 1); err != nil {
		t.Fatal(err)
	}

	out := virtualOutcome{prodErr: make([]error, producers)}
	var running atomic.Int32
	running.Store(int32(producers))
	parkedAtStop := true
	participants := producers + 1
	if stop != nil {
		participants++
	}
	done := make(chan struct{}, participants)

	// Register for the launch, so no participant runs virtual time
	// forward before all of them are queued.
	v.Add(1)
	v.Go(func() {
		defer func() { done <- struct{}{} }()
		for {
			res, err := r.Get(consConn)
			if err != nil {
				out.consErr = err
				return
			}
			out.got = append(out.got, delivery{res.Item.TS, v.Now()})
			v.Sleep(3 * time.Millisecond)
		}
	})
	for p := 0; p < producers; p++ {
		v.Go(func() {
			defer func() { done <- struct{}{} }()
			defer func() {
				if running.Add(-1) == 0 {
					r.Close()
				}
			}()
			for i := 1; i <= n; i++ {
				v.Sleep(time.Millisecond)
				ts := vt.Timestamp(1000*(p+1) + i)
				if _, err := r.Put(prodConn+graph.ConnID(p), &buffer.Item{TS: ts, Size: 8}); err != nil {
					out.prodErr[p] = err
					return
				}
			}
		})
	}
	if stop != nil {
		v.Go(func() {
			defer func() { done <- struct{}{} }()
			v.Sleep(stopAt)
			parkedAtStop = r.sleepProd.Load() > 0
			stop(r)
		})
	}
	v.Add(-1)

	timeout := time.After(10 * time.Second)
	for i := 0; i < participants; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatalf("run hung on the virtual clock: %d of %d participants finished", i, participants)
		}
	}
	if !parkedAtStop {
		t.Fatalf("no producer was parked at %v: the stop did not test a parked wait", stopAt)
	}
	if blockedPuts := r.Stats().PutBlockedCount; blockedPuts == 0 {
		t.Fatal("PutBlocked counted no parked put: the producers never parked")
	}
	return out
}

// sameAcrossRuns runs runVirtual three times and fails unless every run
// delivers the same (ts, virtual time) sequence with the same errors.
func sameAcrossRuns(t *testing.T, producers, n int, stopAt time.Duration, stop func(*Ring)) virtualOutcome {
	t.Helper()
	first := runVirtual(t, producers, n, stopAt, stop)
	for run := 2; run <= 3; run++ {
		again := runVirtual(t, producers, n, stopAt, stop)
		if !slices.Equal(first.got, again.got) {
			t.Fatalf("run %d delivered a different (ts, virtual time) sequence:\n first %v\n again %v", run, first.got, again.got)
		}
		if fmt.Sprint(first.prodErr, first.consErr) != fmt.Sprint(again.prodErr, again.consErr) {
			t.Fatalf("run %d ended differently: producers %v consumer %v, first run %v %v",
				run, again.prodErr, again.consErr, first.prodErr, first.consErr)
		}
	}
	return first
}

// TestVirtualClockBlocking runs a blocking ring on the discrete-event
// clock: both park paths hand the turn through the clock, every item
// arrives in per-producer FIFO order, and the schedule repeats exactly.
func TestVirtualClockBlocking(t *testing.T) {
	const n = 40
	for _, producers := range []int{1, 2} {
		t.Run(fmt.Sprintf("producers=%d", producers), func(t *testing.T) {
			out := sameAcrossRuns(t, producers, n, 0, nil)
			if len(out.got) != producers*n {
				t.Fatalf("delivered %d items, want %d", len(out.got), producers*n)
			}
			last := map[int]vt.Timestamp{}
			for _, d := range out.got {
				p := int(d.ts / 1000)
				if d.ts <= last[p] {
					t.Fatalf("producer %d: ts %v after %v, want FIFO", p, d.ts, last[p])
				}
				last[p] = d.ts
			}
			for p, err := range out.prodErr {
				if err != nil {
					t.Fatalf("producer %d: %v", p, err)
				}
			}
			if !errors.Is(out.consErr, buffer.ErrClosed) {
				t.Fatalf("consumer ended with %v, want ErrClosed", out.consErr)
			}
		})
	}
}

// TestVirtualClockStopWhileParked seals the ring, or fails its
// consumer, while producers are parked on capacity: the parked puts
// return ErrDraining or ErrPeerFailed instead of hanging the clock.
func TestVirtualClockStopWhileParked(t *testing.T) {
	const n, stopAt = 40, 20*time.Millisecond + 500*time.Microsecond
	cases := []struct {
		name             string
		stop             func(*Ring)
		prodErr, consErr error
	}{
		// A sealed ring still serves its backlog, then reports ErrClosed.
		{"seal", (*Ring).Seal, buffer.ErrDraining, buffer.ErrClosed},
		// A failed consumer is detached: its next get is refused.
		{"fail-consumer", func(r *Ring) { r.FailConsumer(consConn) }, buffer.ErrPeerFailed, buffer.ErrNotAttached},
	}
	for _, tc := range cases {
		for _, producers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/producers=%d", tc.name, producers), func(t *testing.T) {
				out := sameAcrossRuns(t, producers, n, stopAt, tc.stop)
				for p, err := range out.prodErr {
					if !errors.Is(err, tc.prodErr) {
						t.Fatalf("producer %d ended with %v, want %v", p, err, tc.prodErr)
					}
				}
				if !errors.Is(out.consErr, tc.consErr) {
					t.Fatalf("consumer ended with %v, want %v", out.consErr, tc.consErr)
				}
				if len(out.got) == 0 || len(out.got) >= producers*n {
					t.Fatalf("delivered %d of %d items: the stop must land mid-run", len(out.got), producers*n)
				}
			})
		}
	}
}
