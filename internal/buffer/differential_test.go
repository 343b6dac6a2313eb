// Differential property tests: the refactored backends, driven purely
// through the buffer.Buffer interface exactly as the runtime drives
// them, are compared op-for-op against straight-line oracle models of
// the pre-refactor semantics (get-latest delivery with skip sets for
// channels, strict FIFO with immediate reclamation for queues). Any
// divergence in delivered timestamps, skip sets, error classes,
// occupancy, or the puts/frees counters is a regression the unit tests
// might rationalize away; the oracle cannot.
package buffer_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	_ "repro/internal/channel" // register "channel"
	"repro/internal/graph"
	_ "repro/internal/queue" // register "queue"
	_ "repro/internal/ring"  // register "ring"
	"repro/internal/vt"
)

const (
	prodConn  graph.ConnID = 10
	consConnA graph.ConnID = 1
	consConnB graph.ConnID = 2
)

func newBackend(t *testing.T, backend string) buffer.Buffer {
	t.Helper()
	b, err := buffer.New(backend, buffer.Config{Name: "diff-" + backend, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachProducer(prodConn); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []graph.ConnID{consConnA, consConnB} {
		if err := b.AttachConsumer(conn, 1); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// itemSize derives a deterministic per-timestamp size so the oracle can
// predict occupancy bytes.
func itemSize(ts vt.Timestamp) int64 { return int64(ts%7+1) * 100 }

// --- channel oracle -------------------------------------------------

// chanCons models one get-latest consumer connection.
type chanCons struct {
	lastSeen  vt.Timestamp
	guarantee vt.Timestamp
}

// chanOracle is the pre-refactor channel model under the no-op
// collector: every put stays live, so delivery and skip sets follow
// from the timestamp order alone.
type chanOracle struct {
	live   map[vt.Timestamp]bool
	maxPut vt.Timestamp
	cons   map[graph.ConnID]*chanCons
	puts   int64
	bytes  int64
}

func newChanOracle() *chanOracle {
	return &chanOracle{
		live:   make(map[vt.Timestamp]bool),
		maxPut: vt.None,
		cons: map[graph.ConnID]*chanCons{
			consConnA: {lastSeen: vt.None, guarantee: vt.None},
			consConnB: {lastSeen: vt.None, guarantee: vt.None},
		},
	}
}

func (o *chanOracle) liveAsc(lo, hi vt.Timestamp) []vt.Timestamp {
	if lo < 1 {
		lo = 1 // the test only puts timestamps ≥ 1 (vt.None is MinInt64)
	}
	var out []vt.Timestamp
	for ts := lo; ts < hi; ts++ {
		if o.live[ts] {
			out = append(out, ts)
		}
	}
	return out
}

func (o *chanOracle) newest() vt.Timestamp {
	newest := vt.None
	for ts := range o.live {
		if ts > newest {
			newest = ts
		}
	}
	return newest
}

// put returns whether the put must succeed.
func (o *chanOracle) put(ts vt.Timestamp) bool {
	if o.live[ts] {
		return false // duplicate
	}
	o.live[ts] = true
	o.puts++
	o.bytes += itemSize(ts)
	if ts > o.maxPut {
		o.maxPut = ts
	}
	return true
}

// tryGet returns the expected item TS, skip list, and ok flag.
func (o *chanOracle) tryGet(conn graph.ConnID) (vt.Timestamp, []vt.Timestamp, bool) {
	cs := o.cons[conn]
	newest := o.newest()
	if newest <= cs.lastSeen {
		return 0, nil, false
	}
	skipped := o.liveAsc(cs.lastSeen+1, newest)
	cs.lastSeen = newest
	if newest > cs.guarantee {
		cs.guarantee = newest
	}
	return newest, skipped, true
}

// getOldest returns the oldest unseen live item: a channel's batch get
// drains in timestamp order and marks nothing skipped.
func (o *chanOracle) getOldest(conn graph.ConnID) (vt.Timestamp, bool) {
	cs := o.cons[conn]
	unseen := o.liveAsc(cs.lastSeen+1, o.newest()+1)
	if len(unseen) == 0 {
		return 0, false
	}
	ts := unseen[0]
	cs.lastSeen = ts
	if ts > cs.guarantee {
		cs.guarantee = ts
	}
	return ts, true
}

// getAtClass classifies the expected GetAt outcome: "ok", "passed",
// "gone", or "block" (the test never issues blocking calls).
func (o *chanOracle) getAtClass(conn graph.ConnID, ts vt.Timestamp) string {
	cs := o.cons[conn]
	if ts <= cs.guarantee {
		return "passed"
	}
	if o.live[ts] {
		if ts > cs.lastSeen {
			cs.lastSeen = ts
		}
		cs.guarantee = ts
		return "ok"
	}
	if o.maxPut > ts {
		return "gone"
	}
	return "block"
}

// TestDifferentialChannel drives a registry-materialized channel with a
// seeded random op sequence and checks every observable against the
// oracle.
//
// The mixed input interleaves the single-item and batch-of-one entry
// points (Put/PutBatch, TryGet/Get/GetBatch) and seals the channel half
// way through, checking the drain ledger against the oracle's count of items
// delivered after the seal.
func TestDifferentialChannel(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			name := fmt.Sprintf("seed=%d", seed)
			if mixed {
				name = "mixed/" + name
			}
			t.Run(name, func(t *testing.T) { diffChannel(t, seed, mixed) })
		}
	}
}

func diffChannel(t *testing.T, seed int64, mixed bool) {
	rng := rand.New(rand.NewSource(seed))
	b := newBackend(t, "channel")
	o := newChanOracle()
	conns := []graph.ConnID{consConnA, consConnB}
	var nextTS vt.Timestamp = 1
	var one [1]buffer.GetResult
	sealed := false
	var drained int64 // oracle: deliveries after the seal

	for op := 0; op < 3000; op++ {
		if mixed && op == 1500 {
			b.Seal()
			sealed = true
		}
		switch k := rng.Intn(10); {
		case k < 4: // put, occasionally a duplicate
			ts := nextTS
			if o.puts > 0 && rng.Intn(10) == 0 {
				ts = vt.Timestamp(1 + rng.Int63n(int64(o.maxPut)))
			} else {
				nextTS += vt.Timestamp(1 + rng.Intn(3))
			}
			wantOK := !sealed && o.put(ts)
			it := &buffer.Item{TS: ts, Size: itemSize(ts)}
			var err error
			if mixed && rng.Intn(2) == 0 {
				_, _, err = b.PutBatch(prodConn, []*buffer.Item{it})
			} else {
				_, err = b.Put(prodConn, it)
			}
			switch {
			case sealed:
				if !errors.Is(err, buffer.ErrDraining) {
					t.Fatalf("op %d: put %v into sealed channel: got %v, want ErrDraining", op, ts, err)
				}
			case wantOK && err != nil:
				t.Fatalf("op %d: put %v: unexpected error %v", op, ts, err)
			case !wantOK && !errors.Is(err, buffer.ErrDuplicate):
				t.Fatalf("op %d: duplicate put %v: got %v, want ErrDuplicate", op, ts, err)
			}

		case k < 8: // try-get by a random consumer; mixed adds Get and
			// GetBatch of one where they cannot block
			conn := conns[rng.Intn(len(conns))]
			mode := 0
			if mixed && (sealed || o.newest() > o.cons[conn].lastSeen) {
				mode = rng.Intn(3)
			}
			var wantTS vt.Timestamp
			var wantSkip []vt.Timestamp
			var wantOK bool
			if mode == 2 {
				wantTS, wantOK = o.getOldest(conn)
			} else {
				wantTS, wantSkip, wantOK = o.tryGet(conn)
			}
			var res buffer.GetResult
			var ok bool
			var err error
			switch mode {
			case 0:
				res, ok, err = b.TryGet(conn)
			case 1:
				res, err = b.Get(conn)
				ok = err == nil
			default:
				var n int
				n, err = b.GetBatch(conn, one[:])
				res, ok = one[0], n == 1
			}
			if sealed && !wantOK {
				if !errors.Is(err, buffer.ErrClosed) {
					t.Fatalf("op %d: get mode %d on flushed sealed channel: %v, want ErrClosed", op, mode, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: get mode %d: %v", op, mode, err)
			}
			if ok != wantOK {
				t.Fatalf("op %d: get mode %d ok=%v, oracle %v", op, mode, ok, wantOK)
			}
			if !ok {
				continue
			}
			if sealed {
				drained++
			}
			if res.Item.TS != wantTS {
				t.Fatalf("op %d: tryget ts=%v, oracle %v", op, res.Item.TS, wantTS)
			}
			if len(res.Skipped) != len(wantSkip) {
				t.Fatalf("op %d: tryget skipped %d items, oracle %d", op, len(res.Skipped), len(wantSkip))
			}
			for i, sk := range res.Skipped {
				if sk.TS != wantSkip[i] {
					t.Fatalf("op %d: skipped[%d]=%v, oracle %v", op, i, sk.TS, wantSkip[i])
				}
			}

		case k < 9: // get-at a timestamp that cannot block
			if o.maxPut == vt.None {
				continue
			}
			conn := conns[rng.Intn(len(conns))]
			ts := vt.Timestamp(1 + rng.Int63n(int64(o.maxPut)))
			class := o.getAtClass(conn, ts)
			if class == "block" {
				continue
			}
			res, err := b.(buffer.AtGetter).GetAt(conn, ts)
			switch class {
			case "ok":
				if err != nil {
					t.Fatalf("op %d: getat %v: %v, oracle ok", op, ts, err)
				}
				if res.Item.TS != ts {
					t.Fatalf("op %d: getat ts=%v, want %v", op, res.Item.TS, ts)
				}
				if sealed {
					drained++
				}
			case "passed":
				if !errors.Is(err, buffer.ErrPassed) {
					t.Fatalf("op %d: getat %v: %v, oracle ErrPassed", op, ts, err)
				}
			case "gone":
				if !errors.Is(err, buffer.ErrGone) {
					t.Fatalf("op %d: getat %v: %v, oracle ErrGone", op, ts, err)
				}
			}

		default: // accounting parity
			st := b.Stats()
			items, bytes := st.Items, st.Bytes
			if items != len(o.live) || bytes != o.bytes {
				t.Fatalf("op %d: occupancy (%d, %d), oracle (%d, %d)", op, items, bytes, len(o.live), o.bytes)
			}
			puts, frees := st.Puts, st.Frees
			if puts != o.puts || frees != 0 {
				t.Fatalf("op %d: stats (%d, %d), oracle (%d, 0)", op, puts, frees, o.puts)
			}
			checkDrainStats(t, b, drained)
		}
	}
	checkDrainStats(t, b, drained)
}

// checkDrainStats compares a backend's drain ledger with the oracle's
// count of items delivered after the seal; nothing is ever shed.
func checkDrainStats(t *testing.T, b buffer.Buffer, drained int64) {
	t.Helper()
	if st := b.Stats(); st.Drained != drained || st.Shed != 0 {
		t.Fatalf("drain stats (%d, %d), oracle (%d, 0)", st.Drained, st.Shed, drained)
	}
}

// --- queue oracle ---------------------------------------------------

// queueOracle is the pre-refactor FIFO model: put appends, get pops the
// head, and the popped item is reclaimed on the spot — so frees must
// track gets exactly (the Stats parity the refactor added).
type queueOracle struct {
	fifo  []vt.Timestamp
	puts  int64
	frees int64
	bytes int64
}

func (o *queueOracle) put(ts vt.Timestamp) {
	o.fifo = append(o.fifo, ts)
	o.puts++
	o.bytes += itemSize(ts)
}

func (o *queueOracle) tryGet() (vt.Timestamp, bool) {
	if len(o.fifo) == 0 {
		return 0, false
	}
	ts := o.fifo[0]
	o.fifo = o.fifo[1:]
	o.frees++
	o.bytes -= itemSize(ts)
	return ts, true
}

// TestDifferentialQueue drives a registry-materialized queue against the
// FIFO oracle, including the frees-counter parity that WriteStatus
// reports.
func TestDifferentialQueue(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := newBackend(t, "queue")
			o := &queueOracle{}
			conns := []graph.ConnID{consConnA, consConnB}
			var nextTS vt.Timestamp

			for op := 0; op < 3000; op++ {
				switch k := rng.Intn(10); {
				case k < 4: // put (queues accept any timestamp order)
					nextTS++
					ts := nextTS
					o.put(ts)
					if _, err := b.Put(prodConn, &buffer.Item{TS: ts, Size: itemSize(ts)}); err != nil {
						t.Fatalf("op %d: put %v: %v", op, ts, err)
					}

				case k < 8: // try-get from either consumer pops the head
					conn := conns[rng.Intn(len(conns))]
					wantTS, wantOK := o.tryGet()
					res, ok, err := b.TryGet(conn)
					if err != nil {
						t.Fatalf("op %d: tryget: %v", op, err)
					}
					if ok != wantOK {
						t.Fatalf("op %d: tryget ok=%v, oracle %v", op, ok, wantOK)
					}
					if ok && res.Item.TS != wantTS {
						t.Fatalf("op %d: tryget ts=%v, oracle %v", op, res.Item.TS, wantTS)
					}

				case k < 9: // no timestamped access on a FIFO backend
					if _, ok := b.(buffer.AtGetter); ok {
						t.Fatalf("op %d: queue implements AtGetter", op)
					}

				default: // accounting parity, including frees
					st := b.Stats()
					items, bytes := st.Items, st.Bytes
					if items != len(o.fifo) || bytes != o.bytes {
						t.Fatalf("op %d: occupancy (%d, %d), oracle (%d, %d)", op, items, bytes, len(o.fifo), o.bytes)
					}
					puts, frees := st.Puts, st.Frees
					if puts != o.puts || frees != o.frees {
						t.Fatalf("op %d: stats (%d, %d), oracle (%d, %d)", op, puts, frees, o.puts, o.frees)
					}
				}
			}
		})
	}
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("mixed/seed=%d", seed), func(t *testing.T) {
			diffMixedFIFO(t, newBackend(t, "queue"), []graph.ConnID{consConnA, consConnB}, seed)
		})
	}
}

// diffMixedFIFO is the mixed differential input shared by the FIFO
// backends: the single-item and batch-of-one entry points (Put/PutBatch,
// TryGet/Get/GetBatch) interleaved at random against the FIFO oracle,
// with a Seal half way through and the drain ledger checked against the
// oracle's count of items delivered after it.
func diffMixedFIFO(t *testing.T, b buffer.Buffer, conns []graph.ConnID, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	o := &queueOracle{}
	var nextTS vt.Timestamp
	var one [1]buffer.GetResult
	sealed := false
	var drained int64

	for op := 0; op < 3000; op++ {
		if op == 1500 {
			b.Seal()
			sealed = true
		}
		switch k := rng.Intn(10); {
		case k < 4: // put, single or a batch of one
			nextTS++
			it := &buffer.Item{TS: nextTS, Size: itemSize(nextTS)}
			var err error
			if rng.Intn(2) == 0 {
				_, _, err = b.PutBatch(prodConn, []*buffer.Item{it})
			} else {
				_, err = b.Put(prodConn, it)
			}
			if sealed {
				if !errors.Is(err, buffer.ErrDraining) {
					t.Fatalf("op %d: put into sealed buffer: %v, want ErrDraining", op, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: put %v: %v", op, nextTS, err)
			}
			o.put(nextTS)

		case k < 9: // get; Get and GetBatch of one only where they cannot block
			conn := conns[rng.Intn(len(conns))]
			mode := 0
			if sealed || len(o.fifo) > 0 {
				mode = rng.Intn(3)
			}
			wantTS, wantOK := o.tryGet()
			var res buffer.GetResult
			var ok bool
			var err error
			switch mode {
			case 0:
				res, ok, err = b.TryGet(conn)
			case 1:
				res, err = b.Get(conn)
				ok = err == nil
			default:
				var n int
				n, err = b.GetBatch(conn, one[:])
				res, ok = one[0], n == 1
			}
			if sealed && !wantOK {
				if !errors.Is(err, buffer.ErrClosed) {
					t.Fatalf("op %d: get mode %d on flushed sealed buffer: %v, want ErrClosed", op, mode, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: get mode %d: %v", op, mode, err)
			}
			if ok != wantOK {
				t.Fatalf("op %d: get mode %d ok=%v, oracle %v", op, mode, ok, wantOK)
			}
			if !ok {
				continue
			}
			if res.Item.TS != wantTS {
				t.Fatalf("op %d: get mode %d ts=%v, oracle %v", op, mode, res.Item.TS, wantTS)
			}
			if sealed {
				drained++
			}

		default: // accounting parity, including frees and the drain ledger
			st := b.Stats()
			items, bytes := st.Items, st.Bytes
			if items != len(o.fifo) || bytes != o.bytes {
				t.Fatalf("op %d: occupancy (%d, %d), oracle (%d, %d)", op, items, bytes, len(o.fifo), o.bytes)
			}
			puts, frees := st.Puts, st.Frees
			if puts != o.puts || frees != o.frees {
				t.Fatalf("op %d: stats (%d, %d), oracle (%d, %d)", op, puts, frees, o.puts, o.frees)
			}
			checkDrainStats(t, b, drained)
		}
	}
	checkDrainStats(t, b, drained)
}

// TestDifferentialRing drives a registry-materialized ring against the
// same FIFO oracle as the queue — the ring is a drop-in FIFO, so any
// divergence from the queue's observable behaviour (delivery order,
// accounting, error classes) is a bug in the lock-free path. Puts and
// gets mix the single-item and batch entry points so the batch fast
// paths are checked against the oracle too.
func TestDifferentialRing(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := newRing(t)
			o := &queueOracle{}
			var nextTS vt.Timestamp
			items := make([]*buffer.Item, 0, 4)
			dst := make([]buffer.GetResult, 4)

			for op := 0; op < 3000; op++ {
				switch k := rng.Intn(10); {
				case k < 4: // put a run of 1..4 items, batched or serial
					items = items[:0]
					for m := 1 + rng.Intn(4); m > 0; m-- {
						nextTS++
						o.put(nextTS)
						items = append(items, &buffer.Item{TS: nextTS, Size: itemSize(nextTS)})
					}
					if rng.Intn(2) == 0 {
						applied, _, err := b.PutBatch(prodConn, items)
						if err != nil || applied != len(items) {
							t.Fatalf("op %d: putbatch = (%d, %v), want (%d, nil)", op, applied, err, len(items))
						}
					} else {
						for _, it := range items {
							if _, err := b.Put(prodConn, it); err != nil {
								t.Fatalf("op %d: put %v: %v", op, it.TS, err)
							}
						}
					}

				case k < 8: // pop: batch get when non-empty, try-get otherwise
					if len(o.fifo) > 0 && rng.Intn(2) == 0 {
						want := len(o.fifo)
						if want > len(dst) {
							want = len(dst)
						}
						n, err := b.GetBatch(consConnA, dst[:1+rng.Intn(len(dst))])
						if err != nil {
							t.Fatalf("op %d: getbatch: %v", op, err)
						}
						if n == 0 || n > want {
							t.Fatalf("op %d: getbatch n=%d with %d queued", op, n, want)
						}
						for i := 0; i < n; i++ {
							wantTS, _ := o.tryGet()
							if dst[i].Item.TS != wantTS {
								t.Fatalf("op %d: getbatch[%d] ts=%v, oracle %v", op, i, dst[i].Item.TS, wantTS)
							}
						}
					} else {
						wantTS, wantOK := o.tryGet()
						res, ok, err := b.TryGet(consConnA)
						if err != nil {
							t.Fatalf("op %d: tryget: %v", op, err)
						}
						if ok != wantOK {
							t.Fatalf("op %d: tryget ok=%v, oracle %v", op, ok, wantOK)
						}
						if ok && res.Item.TS != wantTS {
							t.Fatalf("op %d: tryget ts=%v, oracle %v", op, res.Item.TS, wantTS)
						}
					}

				case k < 9: // no timestamped access on a FIFO backend
					if _, ok := b.(buffer.AtGetter); ok {
						t.Fatalf("op %d: ring implements AtGetter", op)
					}

				default: // accounting parity, including frees
					st := b.Stats()
					items, bytes := st.Items, st.Bytes
					if items != len(o.fifo) || bytes != o.bytes {
						t.Fatalf("op %d: occupancy (%d, %d), oracle (%d, %d)", op, items, bytes, len(o.fifo), o.bytes)
					}
					puts, frees := st.Puts, st.Frees
					if puts != o.puts || frees != o.frees {
						t.Fatalf("op %d: stats (%d, %d), oracle (%d, %d)", op, puts, frees, o.puts, o.frees)
					}
				}
			}
		})
	}
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("mixed/seed=%d", seed), func(t *testing.T) {
			diffMixedFIFO(t, newRing(t), []graph.ConnID{consConnA}, seed)
		})
	}
}

// newRing materializes a single-consumer ring whose capacity exceeds the
// differential tests' total put count, so single-threaded puts can
// never park.
func newRing(t *testing.T) buffer.Buffer {
	t.Helper()
	b, err := buffer.New("ring", buffer.Config{Name: "diff-ring", Node: 1, Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachProducer(prodConn); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachConsumer(consConnA, 1); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRingMPSCHammer floods the ring's CAS-claimed tail from concurrent
// pooled producers through the Buffer interface and demands exact
// accounting at the end: every item delivered exactly once, byte totals
// matching, puts == frees, and an empty ring. Run under -race this is
// the memory-ordering check for the MPSC path.
func TestRingMPSCHammer(t *testing.T) {
	const producers, perProducer, batch = 4, 2500, 8
	pool := buffer.NewItemPool()
	b, err := buffer.New("ring", buffer.Config{Name: "hammer-ring", Node: 1, Capacity: 512, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < producers; i++ {
		if err := b.AttachProducer(graph.ConnID(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AttachConsumer(consConnA, 1); err != nil {
		t.Fatal(err)
	}

	var wantBytes int64
	for i := 0; i < producers*perProducer; i++ {
		wantBytes += itemSize(vt.Timestamp(i + 1))
	}

	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := graph.ConnID(100 + i)
			items := make([]*buffer.Item, 0, batch)
			for k := 0; k < perProducer; {
				items = items[:0]
				for len(items) < batch && k < perProducer {
					it := pool.Get()
					it.TS = vt.Timestamp(i*perProducer + k + 1)
					it.Size = itemSize(it.TS)
					items = append(items, it)
					k++
				}
				if len(items) == 1 {
					if _, err := b.Put(conn, items[0]); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else if applied, _, err := b.PutBatch(conn, items); err != nil || applied != len(items) {
					t.Errorf("putbatch = (%d, %v), want (%d, nil)", applied, err, len(items))
					return
				}
			}
		}(i)
	}

	seen := make(map[vt.Timestamp]int, producers*perProducer)
	var gotBytes int64
	dst := make([]buffer.GetResult, 32)
	for got := 0; got < producers*perProducer; {
		n, err := b.GetBatch(consConnA, dst)
		if err != nil {
			t.Fatalf("getbatch after %d items: %v", got, err)
		}
		for _, res := range dst[:n] {
			seen[res.Item.TS]++
			gotBytes += res.Item.Size
		}
		got += n
	}
	wg.Wait()

	if len(seen) != producers*perProducer {
		t.Fatalf("distinct timestamps = %d, want %d", len(seen), producers*perProducer)
	}
	for ts, n := range seen {
		if n != 1 {
			t.Fatalf("ts %v delivered %d times, want exactly once", ts, n)
		}
	}
	if gotBytes != wantBytes {
		t.Fatalf("delivered bytes = %d, want %d", gotBytes, wantBytes)
	}
	st := b.Stats()
	puts, frees := st.Puts, st.Frees
	if want := int64(producers * perProducer); puts != want || frees != want {
		t.Fatalf("stats = %d/%d, want %d/%d", puts, frees, want, want)
	}
	if st := b.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d, want 0/0", st.Items, st.Bytes)
	}
}

// TestUnifiedDispatchConcurrent hammers both in-process backends through
// the Buffer interface from concurrent producers and consumers — the
// shape the runtime's unified Ctx.Get/Ctx.Put produces — so the -race
// build checks the Base synchronization under interface dispatch.
func TestUnifiedDispatchConcurrent(t *testing.T) {
	for _, backend := range []string{"channel", "queue"} {
		t.Run(backend, func(t *testing.T) {
			b, err := buffer.New(backend, buffer.Config{Name: "race-" + backend, Node: 1})
			if err != nil {
				t.Fatal(err)
			}
			const producers, consumers, perProducer = 3, 3, 200
			for i := 0; i < producers; i++ {
				if err := b.AttachProducer(graph.ConnID(100 + i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < consumers; i++ {
				if err := b.AttachConsumer(graph.ConnID(200+i), 1); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			for i := 0; i < producers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < perProducer; k++ {
						ts := vt.Timestamp(i*perProducer + k + 1)
						if _, err := b.Put(graph.ConnID(100+i), &buffer.Item{TS: ts, Size: 64}); err != nil {
							t.Errorf("put %v: %v", ts, err)
							return
						}
					}
				}(i)
			}
			for i := 0; i < consumers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn := graph.ConnID(200 + i)
					for {
						if _, err := b.Get(conn); err != nil {
							if errors.Is(err, buffer.ErrClosed) {
								return
							}
							t.Errorf("get: %v", err)
							return
						}
					}
				}(i)
			}

			// Let the producers finish, then close to release the
			// blocked consumers.
			done := make(chan struct{})
			go func() {
				defer close(done)
				wg.Wait()
			}()
			go func() {
				// Close once all puts landed; consumers drain or skip.
				for {
					puts := b.Stats().Puts
					if puts >= producers*perProducer {
						b.Close()
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			<-done

			puts := b.Stats().Puts
			if puts != producers*perProducer {
				t.Fatalf("puts=%d, want %d", puts, producers*perProducer)
			}
		})
	}
}
