package remote

// Batch suite: PutBatch/GetBatch over the wire backend. The remote
// endpoint has no native batch path — the round trip is its unit of
// synchronization — so both delegate to the serial fallbacks
// (buffer.PutBatchSerial / buffer.GetBatchSerial). These tests pin the
// fallback contract end to end across a real socket:
//
//   - a batch applies in order and the no-duplicate oracle holds,
//   - a connection severed mid-batch is ridden out by the reconnector:
//     the batch completes fully with the informational ErrReattached,
//   - under a partition with an exhausted retry budget the batch stops
//     early — applied < len(specs), tail ownership stays with the
//     caller — and production resumes after the wire heals.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/runtime"
	"repro/internal/vt"
)

const batchSize = 8

// batchCounters aggregates what the batched thread bodies observed.
type batchCounters struct {
	attempts    atomic.Int64 // items offered via PutBatch
	acked       atomic.Int64 // items applied (incl. via reattach replay)
	shortPuts   atomic.Int64 // batches that stopped early (applied < batch)
	degraded    atomic.Int64 // batch ops that exhausted the retry budget
	consumed    atomic.Int64 // items received via GetBatch
	multiFills  atomic.Int64 // GetBatch calls that filled more than one slot
	reattaches  atomic.Int64 // ops that succeeded via reattach
	orderBreaks atomic.Int64 // timestamp regressions across batch boundaries
}

// buildBatchPipeline wires camera → wire("frames") → display where both
// ends use the batched entry points exclusively. maxRetries controls
// how long the endpoint fights a fault before declaring the op
// degraded: generous for ride-it-out tests, tiny for partial-apply
// tests.
func buildBatchPipeline(t *testing.T, addr string, maxRetries int) (*runtime.Runtime, *batchCounters) {
	t.Helper()
	rt := runtime.New(runtime.Options{ARU: core.PolicyMin()})
	ch, err := rt.AddRemoteChannel("frames", 0, addr, runtime.WithRemoteTuning(buffer.RemoteTuning{
		CallTimeout: 2 * time.Second,
		GetTimeout:  500 * time.Millisecond,
		RetryBase:   5 * time.Millisecond,
		RetryCap:    40 * time.Millisecond,
		RetryJitter: -1, // deterministic schedule
		MaxRetries:  maxRetries,
		Seed:        1719,
		StaleTTL:    120 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctr := &batchCounters{}

	var ts atomic.Int64
	cam := rt.MustAddThread("camera", 0, func(ctx *runtime.Ctx) error {
		out := ctx.Outs()[0]
		specs := make([]runtime.PutSpec, batchSize)
		for !ctx.Stopped() {
			for i := range specs {
				specs[i] = runtime.PutSpec{TS: vt.Timestamp(ts.Add(1)), Payload: []byte("frame"), Size: 64}
			}
			ctr.attempts.Add(int64(len(specs)))
			applied, err := ctx.PutBatch(out, specs)
			ctr.acked.Add(int64(applied))
			// Shutdown legitimately aborts an in-flight batch; only a
			// fault-driven short apply counts against the contract.
			if applied < len(specs) && !errors.Is(err, runtime.ErrShutdown) {
				ctr.shortPuts.Add(1)
			}
			switch {
			case err == nil:
			case errors.Is(err, runtime.ErrReattached):
				ctr.reattaches.Add(1)
			case errors.Is(err, runtime.ErrShutdown):
				return nil
			case errors.Is(err, runtime.ErrDegraded):
				// specs[applied:] were shed; ownership stayed here.
				ctr.degraded.Add(1)
			default:
				return err
			}
			ctx.Compute(2 * time.Millisecond)
			ctx.Sync()
		}
		return nil
	})
	cam.MustOutput(ch)

	var last atomic.Int64
	dis := rt.MustAddThread("display", 0, func(ctx *runtime.Ctx) error {
		in := ctx.Ins()[0]
		dst := make([]runtime.Msg, 4)
		for !ctx.Stopped() {
			n, err := ctx.GetBatch(in, dst)
			switch {
			case err == nil:
			case errors.Is(err, runtime.ErrReattached):
				ctr.reattaches.Add(1)
			case errors.Is(err, runtime.ErrShutdown):
				return nil
			case errors.Is(err, runtime.ErrDegraded):
				ctr.degraded.Add(1)
				ctx.Sync()
				continue
			default:
				return err
			}
			if n > 1 {
				ctr.multiFills.Add(1)
			}
			for i := 0; i < n; i++ {
				if int64(dst[i].TS) < last.Load() {
					ctr.orderBreaks.Add(1)
				}
				last.Store(int64(dst[i].TS))
				ctr.consumed.Add(1)
			}
			ctx.Compute(3 * time.Millisecond)
			ctx.Sync()
		}
		return nil
	})
	dis.MustInput(ch)
	return rt, ctr
}

// assertBatchOracle is the batch no-duplicate/no-loss check: every
// applied item reached the server exactly once, nothing arrived that
// was never offered, and the get-latest discipline kept consumption
// monotone across batch boundaries.
func assertBatchOracle(t *testing.T, s *Server, ctr *batchCounters) {
	t.Helper()
	puts := s.Channel("frames").Stats().Puts
	acked, attempts := ctr.acked.Load(), ctr.attempts.Load()
	if puts < acked || puts > attempts {
		t.Fatalf("server puts = %d outside [acked %d, attempts %d]: lost or duplicated batch inserts", puts, acked, attempts)
	}
	if ctr.orderBreaks.Load() != 0 {
		t.Fatalf("display saw %d timestamp regressions", ctr.orderBreaks.Load())
	}
}

// TestBatchOverWireEndToEnd drives batched production and consumption
// over a healthy wire: full batches apply, items flow, and the serial
// fallback's ordering contract holds.
func TestBatchOverWireEndToEnd(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	srv := newChaosServer(t, ctl, "127.0.0.1:0")
	defer srv.Close()
	rt, ctr := buildBatchPipeline(t, srv.Addr(), 40)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "batched traffic", func() bool {
		return ctr.acked.Load() >= 5*batchSize && ctr.consumed.Load() >= 5
	})
	stopAndWait(t, rt)
	assertBatchOracle(t, srv, ctr)
	if ctr.shortPuts.Load() != 0 {
		t.Fatalf("healthy wire short-applied %d batches", ctr.shortPuts.Load())
	}
	if ctr.degraded.Load() != 0 {
		t.Fatalf("healthy wire degraded %d batch ops", ctr.degraded.Load())
	}
}

// TestBatchRidesOutMidBatchSever severs the producer's connection on
// its next write — between two puts of an in-flight batch, since the
// serial fallback issues one request per item over the same conn. The
// reconnector's generous retry budget must redial and replay so the
// batch still applies fully, reported once via the informational
// ErrReattached; then the consumer side gets the same treatment.
func TestBatchRidesOutMidBatchSever(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	srv := newChaosServer(t, ctl, "127.0.0.1:0")
	defer srv.Close()
	rt, ctr := buildBatchPipeline(t, srv.Addr(), 40)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "warmup traffic", func() bool {
		return ctr.acked.Load() >= 3*batchSize && ctr.consumed.Load() >= 3
	})

	// Sever the next write mid-stream; the producer writes far more
	// often than the consumer, so this lands inside a put batch.
	ctl.DropWriteAfter(0)
	acked := ctr.acked.Load()
	waitUntil(t, 10*time.Second, "batches to ride out the sever", func() bool {
		return ctr.acked.Load() >= acked+3*batchSize
	})

	// Now the read side: sever whichever connection reads next.
	ctl.DropReadAfter(0)
	consumed := ctr.consumed.Load()
	waitUntil(t, 10*time.Second, "consumption to ride out the sever", func() bool {
		return ctr.consumed.Load() >= consumed+3
	})

	stopAndWait(t, rt)
	assertBatchOracle(t, srv, ctr)
	if ctl.Injected() == 0 {
		t.Fatal("no fault was injected; the scenario proved nothing")
	}
	if ctr.reattaches.Load() == 0 {
		t.Fatal("severed connection never reattached")
	}
	if ctr.shortPuts.Load() != 0 {
		t.Fatalf("reattach replay should complete batches, yet %d applied short", ctr.shortPuts.Load())
	}
}

// TestBatchPartialApplyUnderPartition partitions the wire under a tiny
// retry budget: a batch in flight must stop early with applied <
// len(specs) and ErrDegraded — the partial-apply ownership contract —
// and after healing the endpoint reattaches and full batches flow
// again.
func TestBatchPartialApplyUnderPartition(t *testing.T) {
	ctl := faultnet.New(faultnet.Seed(1719))
	srv := newChaosServer(t, ctl, "127.0.0.1:0")
	defer srv.Close()
	rt, ctr := buildBatchPipeline(t, srv.Addr(), 3)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "warmup traffic", func() bool {
		return ctr.acked.Load() >= 3*batchSize && ctr.consumed.Load() >= 3
	})

	ctl.Partition()
	waitUntil(t, 10*time.Second, "a batch to apply short under partition", func() bool {
		return ctr.shortPuts.Load() >= 1 && ctr.degraded.Load() >= 1
	})
	ctl.Heal()

	acked := ctr.acked.Load()
	consumed := ctr.consumed.Load()
	waitUntil(t, 15*time.Second, "batched production to resume", func() bool {
		return ctr.acked.Load() >= acked+3*batchSize
	})
	waitUntil(t, 15*time.Second, "batched consumption to resume", func() bool {
		return ctr.consumed.Load() >= consumed+3
	})

	stopAndWait(t, rt)
	assertBatchOracle(t, srv, ctr)
	if ctr.reattaches.Load() == 0 {
		t.Fatal("partition healed without a single reattach: the fault never bit")
	}
}
