package buffer

import (
	"errors"
	"time"

	"repro/internal/graph"
)

// PutBatchSerial implements PutBatch as a loop of single puts. Backends
// without a native batch path (wire-backed endpoints, whose unit of
// synchronization is the request round trip rather than a lock) delegate
// to it; the ownership contract matches PutBatch exactly — items[:applied]
// belong to the buffer, the rest stay with the caller. An informational
// ErrReattached from an individual put counts as applied and does not
// stop the batch; it is reported once at the end.
func PutBatchSerial(b Buffer, conn graph.ConnID, items []*Item) (applied int, blocked time.Duration, err error) {
	var info error
	for i, it := range items {
		d, perr := b.Put(conn, it)
		blocked += d
		if perr != nil {
			if !errors.Is(perr, ErrReattached) {
				return i, blocked, perr
			}
			info = perr
		}
	}
	return len(items), blocked, info
}

// GetBatchSerial implements GetBatch as one blocking Get followed by
// non-blocking TryGets while the batch has room — never blocking for a
// second item a producer might not send. An informational ErrReattached
// on the first get is passed through with its (valid) item.
func GetBatchSerial(b Buffer, conn graph.ConnID, dst []GetResult) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	res, err := b.Get(conn)
	if err != nil && !errors.Is(err, ErrReattached) {
		return 0, err
	}
	dst[0] = res
	n := 1
	for n < len(dst) {
		res, ok, terr := b.TryGet(conn)
		if terr != nil || !ok {
			break // the first get's informational err still stands
		}
		dst[n] = res
		n++
	}
	return n, err
}
