package ring

import (
	"errors"

	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/graph"
	"repro/internal/vt"
)

const (
	prodConn graph.ConnID = 10
	consConn graph.ConnID = 20
)

func newRing(t *testing.T, capacity int, opts ...func(*buffer.Config)) *Ring {
	t.Helper()
	cfg := buffer.Config{Name: "R", Node: 1, Capacity: capacity}
	for _, o := range opts {
		o(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AttachProducer(prodConn); err != nil {
		t.Fatal(err)
	}
	if err := r.AttachConsumer(consConn, 1); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(buffer.Config{Name: "R"}); err == nil {
		t.Error("capacity 0 must be rejected")
	}
	if _, err := New(buffer.Config{Name: "R", Capacity: 8, Clock: clock.NewVirtual()}); err != nil {
		t.Errorf("discrete-event clock: %v, want accepted", err)
	}
	r, err := New(buffer.Config{Name: "R", Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity() != 4 {
		t.Errorf("capacity 3 → %d slots, want 4 (next power of two)", r.Capacity())
	}
}

func TestAttachmentShape(t *testing.T) {
	r := newRing(t, 8)
	if err := r.AttachConsumer(consConn+1, 1); !errors.Is(err, buffer.ErrUnsupported) {
		t.Errorf("second consumer: %v, want ErrUnsupported", err)
	}
	if err := r.AttachConsumer(consConn, 2); !errors.Is(err, buffer.ErrUnsupported) {
		t.Errorf("window 2: %v, want ErrUnsupported", err)
	}
	if _, ok := any(r).(buffer.AtGetter); ok {
		t.Error("ring implements AtGetter: a FIFO cannot consume by timestamp")
	}
	if _, err := r.Put(graph.ConnID(99), &buffer.Item{TS: 1}); !errors.Is(err, buffer.ErrNotAttached) {
		t.Errorf("unattached put: %v, want ErrNotAttached", err)
	}
	if _, err := r.Get(graph.ConnID(99)); !errors.Is(err, buffer.ErrNotAttached) {
		t.Errorf("unattached get: %v, want ErrNotAttached", err)
	}
}

func TestSPSCOrder(t *testing.T) {
	r := newRing(t, 128)
	for ts := vt.Timestamp(1); ts <= 100; ts++ {
		if _, err := r.Put(prodConn, &buffer.Item{TS: ts, Size: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for ts := vt.Timestamp(1); ts <= 100; ts++ {
		res, err := r.Get(consConn)
		if err != nil {
			t.Fatal(err)
		}
		if res.Item.TS != ts {
			t.Fatalf("got ts %v, want %v (FIFO order)", res.Item.TS, ts)
		}
	}
	st := r.Stats()
	puts, frees := st.Puts, st.Frees
	if puts != 100 || frees != 100 {
		t.Fatalf("stats = %d/%d, want 100/100", puts, frees)
	}
	if st := r.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d after drain, want 0/0", st.Items, st.Bytes)
	}
}

func TestCapacityBlocking(t *testing.T) {
	r := newRing(t, 2)
	for ts := vt.Timestamp(1); ts <= 2; ts++ {
		if _, err := r.Put(prodConn, &buffer.Item{TS: ts}); err != nil {
			t.Fatal(err)
		}
	}
	unblocked := make(chan error, 1)
	go func() {
		_, err := r.Put(prodConn, &buffer.Item{TS: 3})
		unblocked <- err
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("put into a full ring returned early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := r.Get(consConn); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("unblocked put: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put did not unblock after a pop freed a slot")
	}
}

func TestCloseDrainsThenErrors(t *testing.T) {
	r := newRing(t, 8)
	for ts := vt.Timestamp(1); ts <= 3; ts++ {
		if _, err := r.Put(prodConn, &buffer.Item{TS: ts}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if _, err := r.Put(prodConn, &buffer.Item{TS: 4}); !errors.Is(err, buffer.ErrClosed) {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
	for ts := vt.Timestamp(1); ts <= 3; ts++ {
		res, err := r.Get(consConn)
		if err != nil || res.Item.TS != ts {
			t.Fatalf("drain get = (%v, %v), want ts %v", res.Item.TS, err, ts)
		}
	}
	if _, err := r.Get(consConn); !errors.Is(err, buffer.ErrClosed) {
		t.Fatalf("get after drain: %v, want ErrClosed", err)
	}
	if _, ok, err := r.TryGet(consConn); ok || !errors.Is(err, buffer.ErrClosed) {
		t.Fatalf("tryget after drain: ok=%v err=%v, want ErrClosed", ok, err)
	}
}

func TestConsumerFailureUnblocksProducer(t *testing.T) {
	r := newRing(t, 2)
	for ts := vt.Timestamp(1); ts <= 2; ts++ {
		if _, err := r.Put(prodConn, &buffer.Item{TS: ts}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Put(prodConn, &buffer.Item{TS: 3})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	r.FailConsumer(consConn)
	select {
	case err := <-done:
		if !errors.Is(err, buffer.ErrPeerFailed) {
			t.Fatalf("blocked put after consumer death: %v, want ErrPeerFailed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put did not observe the dead consumer")
	}
	if !r.WouldBeDead(99) {
		t.Error("WouldBeDead must report true with a dead audience")
	}
}

func TestProducerFailureDrainsThenErrors(t *testing.T) {
	r := newRing(t, 8)
	for ts := vt.Timestamp(1); ts <= 2; ts++ {
		if _, err := r.Put(prodConn, &buffer.Item{TS: ts}); err != nil {
			t.Fatal(err)
		}
	}
	r.FailProducer(prodConn)
	for ts := vt.Timestamp(1); ts <= 2; ts++ {
		res, err := r.Get(consConn)
		if err != nil || res.Item.TS != ts {
			t.Fatalf("drain get = (%v, %v), want ts %v", res.Item.TS, err, ts)
		}
	}
	if _, err := r.Get(consConn); !errors.Is(err, buffer.ErrPeerFailed) {
		t.Fatalf("get after producers died: %v, want ErrPeerFailed", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	r := newRing(t, 16)
	items := make([]*buffer.Item, 40)
	for i := range items {
		items[i] = &buffer.Item{TS: vt.Timestamp(i + 1), Size: 8}
	}
	// The batch is larger than the ring: PutBatch must publish prefixes
	// and park, so a concurrent consumer is required for progress.
	var got []vt.Timestamp
	done := make(chan struct{})
	go func() {
		defer close(done)
		dst := make([]buffer.GetResult, 7)
		for len(got) < len(items) {
			n, err := r.GetBatch(consConn, dst)
			if err != nil {
				t.Errorf("getbatch: %v", err)
				return
			}
			for _, res := range dst[:n] {
				got = append(got, res.Item.TS)
			}
		}
	}()
	applied, _, err := r.PutBatch(prodConn, items)
	if err != nil || applied != len(items) {
		t.Fatalf("putbatch = (%d, %v), want (%d, nil)", applied, err, len(items))
	}
	<-done
	for i, ts := range got {
		if ts != vt.Timestamp(i+1) {
			t.Fatalf("got[%d] = %v, want %v (FIFO across batches)", i, ts, i+1)
		}
	}
	st := r.Stats()
	puts, frees := st.Puts, st.Frees
	if puts != int64(len(items)) || frees != int64(len(items)) {
		t.Fatalf("stats = %d/%d, want %d/%d", puts, frees, len(items), len(items))
	}
}

func TestGetBatchEmptyDst(t *testing.T) {
	r := newRing(t, 8)
	if n, err := r.GetBatch(consConn, nil); n != 0 || err != nil {
		t.Fatalf("getbatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
}

// TestPooledPutGetAllocs pins the ring's allocation behaviour with a
// pool: a put+get round trip allocates nothing — the put copies the item
// value into the slot and recycles the carrier immediately, so even a
// sustained backlog would stay at 0.
func TestPooledPutGetAllocs(t *testing.T) {
	pool := buffer.NewItemPool()
	r := newRing(t, 64, func(cfg *buffer.Config) { cfg.Pool = pool })
	ts := vt.Timestamp(0)
	allocs := testing.AllocsPerRun(500, func() {
		ts++
		it := pool.Get()
		it.TS, it.Size = ts, 16
		if _, err := r.Put(prodConn, it); err != nil {
			panic(err)
		}
		if _, err := r.Get(consConn); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled ring put+get: %.0f allocs/op, want 0", allocs)
	}
}

// TestDrainConcurrentWithConsumer exercises the CAS-claimed pop path:
// Drain runs while a consumer goroutine is still popping (the shape
// Runtime.Stop produces), and every item must be accounted exactly once
// between them.
func TestDrainConcurrentWithConsumer(t *testing.T) {
	const total = 10000
	r := newRing(t, 1024)
	var consumed int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_, err := r.Get(consConn)
			if err != nil {
				return
			}
			consumed++
		}
	}()
	go func() {
		for ts := vt.Timestamp(1); ts <= total; ts++ {
			if _, err := r.Put(prodConn, &buffer.Item{TS: ts, Size: 4}); err != nil {
				return
			}
		}
		r.Close()
	}()
	// Drain races the still-running consumer, exactly like Stop.
	time.Sleep(time.Millisecond)
	drained := r.Drain()
	<-done
	drained += r.Drain() // anything the consumer left behind after exit
	st := r.Stats()
	puts, frees := st.Puts, st.Frees
	if puts != total {
		t.Fatalf("puts = %d, want %d", puts, total)
	}
	if frees != puts {
		t.Fatalf("frees = %d, want %d (every put reclaimed exactly once)", frees, puts)
	}
	if consumed+int64(drained) != total {
		t.Fatalf("consumer %d + drain %d = %d, want %d", consumed, drained, consumed+int64(drained), total)
	}
	if st := r.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d, want 0/0", st.Items, st.Bytes)
	}
}

// TestMPSCProducers drives N concurrent producers through the CAS tail
// against one consumer and checks exact delivery: every timestamp
// arrives exactly once and the accounting matches to the item.
func TestMPSCProducers(t *testing.T) {
	const producers, perProducer = 4, 3000
	cfg := buffer.Config{Name: "R", Node: 1, Capacity: 256, Pool: buffer.NewItemPool()}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < producers; i++ {
		if err := r.AttachProducer(graph.ConnID(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AttachConsumer(consConn, 1); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := graph.ConnID(100 + i)
			for k := 0; k < perProducer; k++ {
				it := cfg.Pool.Get()
				it.TS = vt.Timestamp(i*perProducer + k + 1)
				it.Size = 8
				if _, err := r.Put(conn, it); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(i)
	}

	seen := make(map[vt.Timestamp]int, producers*perProducer)
	dst := make([]buffer.GetResult, 64)
	for got := 0; got < producers*perProducer; {
		n, err := r.GetBatch(consConn, dst)
		if err != nil {
			t.Fatalf("getbatch after %d items: %v", got, err)
		}
		for _, res := range dst[:n] {
			seen[res.Item.TS]++
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
	st := r.Stats()
	puts, frees := st.Puts, st.Frees
	if want := int64(producers * perProducer); puts != want || frees != want {
		t.Fatalf("stats = %d/%d, want %d/%d", puts, frees, want, want)
	}
	if st := r.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("occupancy = %d/%d, want 0/0", st.Items, st.Bytes)
	}
}

// TestPerProducerFIFO checks the per-producer ordering guarantee in MPSC
// mode: interleaving across producers is arbitrary, but each producer's
// own items arrive in its put order.
func TestPerProducerFIFO(t *testing.T) {
	const producers, perProducer = 3, 2000
	r, err := New(buffer.Config{Name: "R", Node: 1, Capacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < producers; i++ {
		if err := r.AttachProducer(graph.ConnID(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AttachConsumer(consConn, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := graph.ConnID(100 + i)
			for k := 0; k < perProducer; k++ {
				// Payload identifies the producer; TS is its sequence.
				it := &buffer.Item{TS: vt.Timestamp(k + 1), Payload: i, Size: 1}
				if _, err := r.Put(conn, it); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(i)
	}
	last := make([]vt.Timestamp, producers)
	for got := 0; got < producers*perProducer; got++ {
		res, err := r.Get(consConn)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Item.Payload.(int)
		if res.Item.TS <= last[p] {
			t.Fatalf("producer %d: ts %v after %v — per-producer order broken", p, res.Item.TS, last[p])
		}
		last[p] = res.Item.TS
	}
	wg.Wait()
}

func TestHighWaterWithMetricsOff(t *testing.T) {
	r := newRing(t, 8)
	if st := r.Stats(); st.HighWaterItems != 0 || st.HighWaterBytes != 0 {
		t.Fatalf("high water without metrics = %d/%d, want 0/0", st.HighWaterItems, st.HighWaterBytes)
	}
}

// Compile-time interface check plus a registry round trip.
func TestRegistered(t *testing.T) {
	var _ buffer.Buffer = (*Ring)(nil)
	b, err := buffer.New("ring", buffer.Config{Name: "viaRegistry", Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*Ring); !ok {
		t.Fatalf("registry built %T, want *Ring", b)
	}
	be, ok := buffer.Lookup("ring")
	if !ok {
		t.Fatal(`"ring" is not registered`)
	}
	if got := be.Caps; got.Discipline != buffer.FIFO || got.GetAt || got.Windows || got.Remote {
		t.Fatalf("caps = %+v", got)
	}
}
