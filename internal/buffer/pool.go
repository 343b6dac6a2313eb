package buffer

import "sync"

// freeListCap bounds the ItemPool's level-0 free list. It is deliberately
// small: the list exists to make recycling deterministic (a GC cycle may
// empty a sync.Pool at any time, which would perturb the put=0 allocation
// pins), not to be the bulk store — overflow spills into the sync.Pool,
// whose per-P private slots carry the parallel load.
const freeListCap = 1024

// ItemPool recycles Item allocations between the producer hot path and
// the reclamation paths (collection, dequeue, drain). With a pool wired
// into the runtime, the steady-state put→consume→free cycle allocates
// nothing: the Item freed by one iteration is the Item the next put
// reuses, retiring the historical put=1 allocation pin to put=0.
//
// GetN consults a bounded free list first (the deterministic fast path),
// then the embedded sync.Pool; RecycleN zeroes each item — dropping the
// payload reference so pooling never extends payload lifetimes — and
// returns it the same way. All methods are safe for concurrent use and
// nil-safe: a nil *ItemPool ignores Recycle and allocates on Get, so
// backends call it unconditionally.
type ItemPool struct {
	mu   sync.Mutex
	free []*Item
	pool sync.Pool
}

// NewItemPool returns an empty pool.
func NewItemPool() *ItemPool {
	p := &ItemPool{free: make([]*Item, 0, freeListCap)}
	p.pool.New = func() any { return new(Item) }
	return p
}

// Get returns a zeroed Item, reusing a recycled one when available: a
// GetN of one.
func (p *ItemPool) Get() *Item {
	var one [1]*Item
	p.GetN(one[:])
	return one[0]
}

// GetN fills dst with zeroed carriers in one free-list round: the lock
// is taken once for the whole batch instead of once per item, which is
// what makes batched puts cheaper than repeated Get calls.
func (p *ItemPool) GetN(dst []*Item) {
	if p == nil {
		for i := range dst {
			dst[i] = new(Item)
		}
		return
	}
	p.mu.Lock()
	n := len(p.free)
	take := n
	if take > len(dst) {
		take = len(dst)
	}
	copy(dst[:take], p.free[n-take:])
	p.free = p.free[:n-take]
	p.mu.Unlock()
	for i := take; i < len(dst); i++ {
		dst[i] = p.pool.Get().(*Item)
	}
}

// RecycleN zeroes and recycles a batch of items in one free-list round;
// what the free list cannot hold spills into the sync.Pool outside the
// lock. nil entries are skipped, and the caller must be the sole owner
// of every item. A nil pool ignores the batch.
func (p *ItemPool) RecycleN(items []*Item) {
	if p == nil {
		return
	}
	for _, it := range items {
		if it != nil {
			*it = Item{}
		}
	}
	k := 0
	p.mu.Lock()
	for k < len(items) && len(p.free) < cap(p.free) {
		if items[k] != nil {
			p.free = append(p.free, items[k])
		}
		k++
	}
	p.mu.Unlock()
	for ; k < len(items); k++ {
		if items[k] != nil {
			p.pool.Put(items[k])
		}
	}
}

// Recycle zeroes an item and returns it to the pool: a RecycleN of one.
// The caller must be the item's sole owner: buffers recycle only after
// the item left their storage and every observer (OnFree, snapshots) is
// done with the pointer. Recycling nil or through a nil pool is a no-op.
func (p *ItemPool) Recycle(it *Item) {
	p.RecycleN([]*Item{it})
}
