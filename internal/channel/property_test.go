package channel

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/vt"
)

// refModel is a map-based reference implementation of a DGC channel used
// to check invariants against random operation sequences:
//
//   - TryGetLatest returns the maximum live timestamp above the
//     consumer's guarantee, and its skip set is exactly the live
//     timestamps strictly between.
//   - Guarantees advance monotonically.
//   - Under DGC an item is freed exactly when every consumer guarantee
//     has reached its timestamp.
//   - Occupancy always equals the reference's live set.
type refModel struct {
	live       map[vt.Timestamp]int64 // ts → size
	guarantees map[graph.ConnID]vt.Timestamp
}

func (m *refModel) minGuarantee() vt.Timestamp {
	min := vt.Infinity
	for _, g := range m.guarantees {
		if g < min {
			min = g
		}
	}
	return min
}

// sweep removes reference items dead under DGC semantics.
func (m *refModel) sweep() {
	min := m.minGuarantee()
	if min == vt.None {
		return
	}
	for ts := range m.live {
		if ts <= min {
			delete(m.live, ts)
		}
	}
}

func (m *refModel) maxLiveAbove(g vt.Timestamp) vt.Timestamp {
	best := vt.None
	for ts := range m.live {
		if ts > g && ts > best {
			best = ts
		}
	}
	return best
}

func TestChannelMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		consumers := []graph.ConnID{10, 11, 12}
		const prod = graph.ConnID(0)

		ch := New(Config{Name: "prop", Clock: clock.NewReal(), Collector: gc.NewDeadTimestamp()})
		ch.AttachProducer(prod)
		ref := &refModel{live: map[vt.Timestamp]int64{}, guarantees: map[graph.ConnID]vt.Timestamp{}}
		for _, c := range consumers {
			ch.AttachConsumer(c, 1)
			ref.guarantees[c] = vt.None
		}

		nextTS := vt.Timestamp(0)
		for round := 0; round < 1500; round++ {
			switch op := rng.Intn(10); {
			case op < 5: // put a fresh timestamp
				nextTS++
				size := int64(rng.Intn(1000) + 1)
				if _, err := ch.Put(prod, &Item{TS: nextTS, Size: size}); err != nil {
					t.Fatalf("seed %d round %d: put: %v", seed, round, err)
				}
				ref.live[nextTS] = size
				ref.sweep()

			case op < 6: // duplicate put must fail and not disturb state
				if nextTS == 0 {
					continue
				}
				dup := vt.Timestamp(rng.Int63n(int64(nextTS)) + 1)
				_, err := ch.Put(prod, &Item{TS: dup, Size: 1})
				if _, live := ref.live[dup]; live {
					if !errors.Is(err, ErrDuplicate) {
						t.Fatalf("seed %d round %d: dup put of live %v err = %v", seed, round, dup, err)
					}
				} else if err == nil {
					// Reinserting a collected timestamp is accepted by
					// the channel (it only tracks live duplicates), so
					// mirror it.
					ref.live[dup] = 1
					ref.sweep()
				}

			case op < 9: // TryGetLatest on a random consumer
				c := consumers[rng.Intn(len(consumers))]
				want := ref.maxLiveAbove(ref.guarantees[c])
				res, ok, err := ch.TryGet(c)
				if err != nil {
					t.Fatalf("seed %d round %d: try: %v", seed, round, err)
				}
				if (want != vt.None) != ok {
					t.Fatalf("seed %d round %d: try ok=%v but reference wants %v (guar %v, live %v)",
						seed, round, ok, want, ref.guarantees[c], ref.live)
				}
				if !ok {
					continue
				}
				if res.Item.TS != want {
					t.Fatalf("seed %d round %d: got %v, reference wants %v", seed, round, res.Item.TS, want)
				}
				// Skip set: live strictly between guarantee and want.
				skipWant := 0
				for ts := range ref.live {
					if ts > ref.guarantees[c] && ts < want {
						skipWant++
					}
				}
				if len(res.Skipped) != skipWant {
					t.Fatalf("seed %d round %d: skipped %d, want %d", seed, round, len(res.Skipped), skipWant)
				}
				if want <= ref.guarantees[c] {
					t.Fatalf("guarantee would regress")
				}
				ref.guarantees[c] = want
				ref.sweep()

			default: // occupancy audit
				st := ch.Stats()
				items, bytes := st.Items, st.Bytes
				var refBytes int64
				for _, s := range ref.live {
					refBytes += s
				}
				if items != len(ref.live) || bytes != refBytes {
					t.Fatalf("seed %d round %d: occupancy %d/%d, reference %d/%d",
						seed, round, items, bytes, len(ref.live), refBytes)
				}
			}
		}
		// Final audit.
		items := ch.Stats().Items
		if items != len(ref.live) {
			t.Fatalf("seed %d: final occupancy %d vs reference %d", seed, items, len(ref.live))
		}
	}
}
