package clock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkVirtualSleepCycle measures one full virtual sleep + advance
// cycle with a single participant — the simulator's pacing cost.
func BenchmarkVirtualSleepCycle(b *testing.B) {
	v := NewVirtual()
	v.Add(1)
	defer v.Add(-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Sleep(time.Millisecond)
	}
}

// BenchmarkVirtualContended measures the advance cycle with 4 sleepers.
func BenchmarkVirtualContended(b *testing.B) {
	v := NewVirtual()
	const workers = 4
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		v.Add(1)
		go func(w int) {
			defer v.Add(-1)
			for {
				select {
				case <-done:
					return
				default:
					v.Sleep(time.Duration(w+1) * time.Millisecond)
				}
			}
		}(w)
	}
	v.Add(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Sleep(2 * time.Millisecond)
	}
	b.StopTimer()
	close(done)
	v.Add(-1)
}

// BenchmarkVirtualHandoff measures one turn handoff between participants
// started with Go: each takes the turn, counts it and sleeps, so every
// handoff passes from one coroutine to the next.
func BenchmarkVirtualHandoff(b *testing.B) {
	for _, n := range []int{2, 6} {
		b.Run(fmt.Sprintf("go=%d", n), func(b *testing.B) {
			v := NewVirtual()
			turns := 0
			var wg sync.WaitGroup
			wg.Add(n)
			v.Add(1) // hold the turn until every participant is queued
			for w := 0; w < n; w++ {
				v.Go(func() {
					defer wg.Done()
					for turns < b.N {
						turns++
						v.Sleep(time.Millisecond)
					}
				})
			}
			b.ResetTimer()
			v.Add(-1)
			wg.Wait()
		})
	}
}
