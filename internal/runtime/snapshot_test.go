package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/vt"
)

// TestSnapshotBooksConsistent polls Snapshot on a running src→buffer→sink
// pipeline and checks that every buffer row is one reading of the books:
// Puts - Frees == Items. Reading occupancy and counters through separate
// lock acquisitions tears that identity whenever a put or free lands in
// between. The ring keeps its counters in separate atomics and promises
// no cross-field identity, so it is not covered here.
func TestSnapshotBooksConsistent(t *testing.T) {
	if goruntime.GOMAXPROCS(0) < 2 {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	}
	for _, tc := range []struct {
		name  string
		queue bool
	}{{"channel", false}, {"queue", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
			var buf *BufferRef
			if tc.queue {
				buf = rt.MustAddQueue("Q", 0) // unbounded: stays a queue
			} else {
				buf = rt.MustAddChannel("C", 0)
			}
			// credits bounds the unbounded queue's backlog: the source
			// takes one per put, the sink returns one per get. The
			// channel's collector bounds its own live set.
			credits := make(chan struct{}, 256)
			for range cap(credits) {
				credits <- struct{}{}
			}
			src := rt.MustAddThread("src", 0, func(ctx *Ctx) error {
				out := outPortOf(t, rt, "src", buf.name)
				for ts := vt.Timestamp(1); !ctx.Stopped(); ts++ {
					if tc.queue {
						select {
						case <-credits:
						case <-time.After(time.Millisecond):
							continue
						}
					}
					if err := ctx.Put(out, ts, nil, 1); err != nil {
						return err
					}
					ctx.Sync()
				}
				return nil
			})
			sink := rt.MustAddThread("sink", 0, func(ctx *Ctx) error {
				in := inPortOf(t, rt, "sink", buf.name)
				for {
					if _, err := ctx.Get(in); err != nil {
						return err
					}
					if tc.queue {
						credits <- struct{}{}
					}
					ctx.Sync()
				}
			})
			src.MustOutput(buf)
			sink.MustInput(buf)
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			rows, torn := 0, 0
			for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
				for _, bs := range rt.Snapshot().Buffers {
					rows++
					if bs.Puts-bs.Frees != int64(bs.Items) {
						if torn == 0 {
							t.Errorf("torn row: puts %d - frees %d != items %d", bs.Puts, bs.Frees, bs.Items)
						}
						torn++
					}
				}
			}
			rt.Stop()
			rt.Wait()
			if torn > 0 {
				t.Errorf("%d of %d snapshot rows torn", torn, rows)
			}
			if last := rt.Snapshot().Buffers[0]; last.Puts == 0 {
				t.Fatal("the source put nothing: the test exercised no concurrency")
			}
		})
	}
}
