package queue

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/vt"
)

// TestQueueMatchesReferenceFIFO drives random put/get sequences against a
// slice-based reference: dequeue order is exactly enqueue order,
// occupancy always matches, and LastDequeued tracks the max dequeued
// timestamp.
func TestQueueMatchesReferenceFIFO(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Name: "prop", Clock: clock.NewReal()})
		q.AttachProducer(prod)
		q.AttachConsumer(cons, 1)

		type refItem struct {
			ts   vt.Timestamp
			size int64
		}
		var ref []refItem
		var nextTS vt.Timestamp
		maxDeq := vt.None

		for round := 0; round < 1500; round++ {
			switch op := rng.Intn(10); {
			case op < 5: // put
				nextTS++
				size := int64(rng.Intn(500) + 1)
				if _, err := q.Put(prod, &Item{TS: nextTS, Size: size}); err != nil {
					t.Fatalf("seed %d: put: %v", seed, err)
				}
				ref = append(ref, refItem{nextTS, size})

			case op < 9: // get (only when the reference is non-empty:
				// a blocking get on an empty queue would deadlock a
				// single-threaded property test)
				if len(ref) == 0 {
					continue
				}
				res, err := q.Get(cons)
				if err != nil {
					t.Fatalf("seed %d: get: %v", seed, err)
				}
				want := ref[0]
				ref = ref[1:]
				if res.Item.TS != want.ts || res.Item.Size != want.size {
					t.Fatalf("seed %d: dequeued %v/%d, want %v/%d",
						seed, res.Item.TS, res.Item.Size, want.ts, want.size)
				}
				if res.Item.TS > maxDeq {
					maxDeq = res.Item.TS
				}

			default: // audit
				st := q.Stats()
				items, bytes := st.Items, st.Bytes
				var refBytes int64
				for _, it := range ref {
					refBytes += it.size
				}
				if items != len(ref) || bytes != refBytes {
					t.Fatalf("seed %d: occupancy %d/%d vs reference %d/%d",
						seed, items, bytes, len(ref), refBytes)
				}
				if q.LastDequeued() != maxDeq {
					t.Fatalf("seed %d: LastDequeued %v vs %v", seed, q.LastDequeued(), maxDeq)
				}
			}
		}
		if q.Stats().Puts != int64(nextTS) {
			t.Fatalf("seed %d: Puts %d vs %d", seed, q.Stats().Puts, nextTS)
		}
	}
}

var _ = graph.ConnID(0)
