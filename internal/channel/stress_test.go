package channel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/vt"
)

// TestChannelConcurrentWindowConsumersProperty is the -race workout for
// the split-condvar channel: N producers feed one bounded channel while
// M sliding-window consumers (plus one plain get-latest consumer) drain
// it with the dead-timestamp collector running on every operation.
//
// It asserts, per consumer connection:
//   - delivered heads are strictly increasing (get-latest never goes
//     backwards, so the guarantee is monotone);
//   - every snapshot handed out — head, window member, or skipped item —
//     carries the payload written at put time. freeLocked nils the
//     payload before reuse, so a delivered-after-free item would fail
//     the payload check;
//   - window members precede the head in ascending timestamp order.
func TestChannelConcurrentWindowConsumersProperty(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		perProd   = 400
		capacity  = 8
		width     = 3
	)
	c := New(Config{
		Name:      "stress",
		Clock:     clock.NewReal(),
		Collector: gc.NewDeadTimestamp(),
		Capacity:  capacity,
	})
	prodConns := make([]graph.ConnID, producers)
	for i := range prodConns {
		prodConns[i] = graph.ConnID(100 + i)
		c.AttachProducer(prodConns[i])
	}
	consConns := make([]graph.ConnID, consumers+1)
	for i := 0; i < consumers; i++ {
		consConns[i] = graph.ConnID(200 + i)
		if err := c.AttachConsumer(consConns[i], width); err != nil {
			t.Fatal(err)
		}
	}
	consConns[consumers] = graph.ConnID(299) // plain width-1 consumer
	c.AttachConsumer(consConns[consumers], 1)

	checkSnapshot := func(it Item) error {
		if it.Payload != int(it.TS) {
			return errorfSnapshot(it)
		}
		return nil
	}

	var next atomic.Int64 // globally increasing timestamps
	var wg sync.WaitGroup
	errs := make(chan error, producers+consumers+1)

	for _, pc := range prodConns {
		wg.Add(1)
		go func(pc graph.ConnID) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				ts := vt.Timestamp(next.Add(1))
				it := &Item{TS: ts, Size: 16, Payload: int(ts)}
				if _, err := c.Put(pc, it); err != nil {
					errs <- err
					return
				}
			}
		}(pc)
	}

	var cwg sync.WaitGroup
	for _, cc := range consConns {
		cwg.Add(1)
		go func(cc graph.ConnID) {
			defer cwg.Done()
			lastHead := vt.None
			lastGuarantee := vt.None
			for {
				res, err := c.Get(cc)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				if res.Item.TS <= lastHead {
					errs <- errorfOrder("head", res.Item.TS, lastHead)
					return
				}
				lastHead = res.Item.TS
				if g := c.Guarantee(cc); g < lastGuarantee {
					errs <- errorfOrder("guarantee", g, lastGuarantee)
					return
				} else {
					lastGuarantee = g
				}
				if err := checkSnapshot(res.Item); err != nil {
					errs <- err
					return
				}
				prev := vt.None
				for _, w := range res.Window {
					if w.TS <= prev || w.TS >= res.Item.TS {
						errs <- errorfOrder("window", w.TS, prev)
						return
					}
					prev = w.TS
					if err := checkSnapshot(w); err != nil {
						errs <- err
						return
					}
				}
				for _, sk := range res.Skipped {
					if err := checkSnapshot(sk); err != nil {
						errs <- err
						return
					}
				}
			}
		}(cc)
	}

	wg.Wait() // all producers done
	c.Close() // unblocks consumers
	cwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := c.Stats(); st.Puts != producers*perProd || st.Frees != st.Puts {
		t.Errorf("puts=%d frees=%d, want %d puts all freed on close",
			st.Puts, st.Frees, producers*perProd)
	}
}

func errorfSnapshot(it Item) error {
	return &snapshotErr{it}
}

type snapshotErr struct{ it Item }

func (e *snapshotErr) Error() string {
	return "snapshot of item at ts " + e.it.TS.String() + " lost its payload (delivered after free?)"
}

func errorfOrder(what string, got, prev vt.Timestamp) error {
	return &orderErr{what, got, prev}
}

type orderErr struct {
	what      string
	got, prev vt.Timestamp
}

func (e *orderErr) Error() string {
	return e.what + " not monotone: " + e.got.String() + " after " + e.prev.String()
}
