package runtime

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/queue"
	_ "repro/internal/remote" // register the "remote" backend
	"repro/internal/vt"
)

// TestInputWindowOnQueueIsTypedError pins the wiring-time half of the
// port-kind contract: connecting a sliding-window input to a FIFO queue
// is refused with ErrPortKind — an error value, never a panic.
func TestInputWindowOnQueueIsTypedError(t *testing.T) {
	rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
	q := rt.MustAddQueue("Q", 0)
	th := rt.MustAddThread("t", 0, func(ctx *Ctx) error { return nil })
	if _, err := th.InputWindow(q, 3); !errors.Is(err, ErrPortKind) {
		t.Fatalf("InputWindow on queue: err = %v, want ErrPortKind", err)
	}
}

// TestRemoteBufferNeedsRealClock pins the other wiring-time capability
// check: a Remote-caps backend under a discrete-event clock fails Start
// with a typed error (network blocking is invisible to virtual time).
func TestRemoteBufferNeedsRealClock(t *testing.T) {
	rt := New(Options{Clock: clock.NewVirtual(), ARU: core.PolicyOff()})
	ch := rt.MustAddRemoteChannel("frames", 0, "127.0.0.1:1")
	src := rt.MustAddThread("src", 0, func(ctx *Ctx) error { return nil })
	snk := rt.MustAddThread("snk", 0, func(ctx *Ctx) error { return nil })
	src.MustOutput(ch)
	snk.MustInput(ch)
	if err := rt.Start(); err == nil {
		rt.Stop()
		rt.Wait()
		t.Fatal("Start with remote buffer under virtual clock: want error, got nil")
	}
}

// falseAtGetter is a backend that declares GetAt in its Caps but whose
// instances lack the buffer.AtGetter face.
type falseAtGetter struct{ *queue.Queue }

// TestConformanceFalseGetAtClaim registers a backend whose Caps claim
// GetAt without implementing buffer.AtGetter, as outside code may through
// aru.RegisterBufferBackend: Start must refuse it with ErrPortKind rather
// than let Ctx.GetAt fail a type assertion later.
func TestConformanceFalseGetAtClaim(t *testing.T) {
	const backend = "test-false-getat"
	if _, ok := buffer.Lookup(backend); !ok {
		buffer.Register(backend, buffer.Backend{
			New:  func(cfg buffer.Config) (buffer.Buffer, error) { return falseAtGetter{queue.New(cfg)}, nil },
			Caps: buffer.Caps{Discipline: buffer.Latest, GetAt: true},
		})
	}
	rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
	ref, err := rt.addBuffer(graph.KindChannel, backend, "F", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.MustAddThread("src", 0, func(ctx *Ctx) error { return nil }).MustOutput(ref)
	rt.MustAddThread("snk", 0, func(ctx *Ctx) error { return nil }).MustInput(ref)
	if err := rt.Start(); !errors.Is(err, ErrPortKind) {
		if err == nil {
			rt.Stop()
			rt.Wait()
		}
		t.Fatalf("Start with a false GetAt claim: err = %v, want ErrPortKind", err)
	}
}

// TestPortKindMisuseAtCallTime pins the call-time half: every
// discipline-restricted get variant invoked on the wrong backend returns
// ErrPortKind (and leaves the port usable), while the unified Ctx.Get
// serves both disciplines.
func TestPortKindMisuseAtCallTime(t *testing.T) {
	rt := New(Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})
	ch := rt.MustAddChannel("C", 0)
	q := rt.MustAddQueue("Q", 0)

	type report struct {
		name string
		err  error
	}
	results := make(chan report, 16)

	prod := rt.MustAddThread("prod", 0, func(ctx *Ctx) error {
		for ts := vt.Timestamp(1); ts <= 2; ts++ {
			for _, out := range ctx.Outs() {
				if err := ctx.Put(out, ts, nil, 10); err != nil {
					return err
				}
			}
		}
		<-ctx.Done()
		return nil
	})
	consC := rt.MustAddThread("consC", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		_, err := ctx.GetQueue(in)
		results <- report{"GetQueue on channel", err}
		_, err = ctx.Get(in) // unified get still works afterwards
		results <- report{"unified Get on channel", err}
		<-ctx.Done()
		return nil
	})
	consQ := rt.MustAddThread("consQ", 0, func(ctx *Ctx) error {
		in := ctx.Ins()[0]
		_, err := ctx.GetLatest(in)
		results <- report{"GetLatest on queue", err}
		_, err = ctx.GetAt(in, 1)
		results <- report{"GetAt on queue", err}
		_, _, err = ctx.GetWindow(in)
		results <- report{"GetWindow on queue", err}
		_, err = ctx.Get(in) // unified get still works afterwards
		results <- report{"unified Get on queue", err}
		<-ctx.Done()
		return nil
	})

	prod.MustOutput(ch)
	prod.MustOutput(q)
	consC.MustInput(ch)
	consQ.MustInput(q)

	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		rt.Stop()
		rt.Wait()
	}()

	wantKind := map[string]bool{
		"GetQueue on channel":    true,
		"GetLatest on queue":     true,
		"GetAt on queue":         true,
		"GetWindow on queue":     true,
		"unified Get on channel": false,
		"unified Get on queue":   false,
	}
	for i := 0; i < len(wantKind); i++ {
		rep := <-results
		if wantKind[rep.name] {
			if !errors.Is(rep.err, ErrPortKind) {
				t.Errorf("%s: err = %v, want ErrPortKind", rep.name, rep.err)
			}
		} else if rep.err != nil {
			t.Errorf("%s: unexpected error %v", rep.name, rep.err)
		}
	}
}
