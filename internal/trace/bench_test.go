package trace

import (
	"testing"
)

// BenchmarkAnalyze measures the postmortem pass over the reference
// pipeline trace, scaled 100x.
func BenchmarkAnalyze(b *testing.B) {
	base := buildPipelineTrace()
	events := make([]Event, 0, len(base)*100)
	for rep := 0; rep < 100; rep++ {
		offset := ItemID(rep * 1000)
		for _, ev := range base {
			ev2 := ev
			if ev2.Item != 0 {
				ev2.Item += offset
			}
			if len(ev2.Items) > 0 {
				items := make([]ItemID, len(ev2.Items))
				for i, id := range ev2.Items {
					items[i] = id + offset
				}
				ev2.Items = items
			}
			events = append(events, ev2)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeEvents(events, AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderEvents measures the snapshot that every persisted
// trace and report starts from: 64 k events.
func BenchmarkRecorderEvents(b *testing.B) {
	const n = 64 << 10
	r := filledRecorder(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Events()) != n {
			b.Fatal("short snapshot")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}

// BenchmarkRecorderAppend measures the tracing hot path.
func BenchmarkRecorderAppend(b *testing.B) {
	r := NewRecorder()
	ev := Event{Kind: EvGet, Item: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(ev)
	}
}

// BenchmarkRecorderAppendParallel measures the tracing hot path under
// contention: every thread goroutine of a busy pipeline appends trace
// events concurrently, which is exactly the pattern of a real run (each
// put/get/skip/free funnels into the recorder).
func BenchmarkRecorderAppendParallel(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ev := Event{Kind: EvGet, Item: 1}
		for pb.Next() {
			r.Append(ev)
		}
	})
}
