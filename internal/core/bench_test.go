package core

import (
	"testing"
	"time"

	"repro/internal/graph"
)

// benchGraph builds the Figure 3 fan-out (thread A → channels B..F →
// consumer threads) and returns a controller primed with the paper's
// example feedback values, plus one put conn (A→B) and one get conn
// (B→B-consumer).
func benchGraph(b testing.TB, p Policy) (c *Controller, putConn, getConn graph.ConnID) {
	b.Helper()
	g := graph.New()
	a := g.MustAddNode(graph.KindThread, "A", 0)
	reports := map[string]STP{
		"B": STP(337e6), "C": STP(139e6), "D": STP(273e6),
		"E": STP(544e6), "F": STP(420e6),
	}
	for _, name := range []string{"B", "C", "D", "E", "F"} {
		ch := g.MustAddNode(graph.KindChannel, name, 0)
		cons := g.MustAddNode(graph.KindThread, name+"-consumer", 0)
		pc := g.MustConnect(a, ch)
		gc := g.MustConnect(ch, cons)
		if name == "B" {
			putConn, getConn = pc, gc
		}
		_ = cons
	}
	c = NewController(g, p)
	for _, name := range []string{"B", "C", "D", "E", "F"} {
		id, _ := g.Lookup(name + "-consumer")
		c.SetCurrentSTP(id, reports[name])
	}
	// Push feedback once so every slot is warm.
	g.Conns(func(cn *graph.Conn) {
		if g.Node(cn.From).Kind == graph.KindChannel {
			c.NoteGet(cn.ID)
		}
	})
	g.Conns(func(cn *graph.Conn) {
		if g.Node(cn.To).Kind == graph.KindChannel {
			c.NotePut(cn.ID)
		}
	})
	return c, putConn, getConn
}

// BenchmarkNotePut measures the producer-side piggyback — executed once
// per put on every thread of the pipeline, it must cost nanoseconds and
// zero allocations or the feedback mechanism perturbs the STP
// measurements it feeds on.
func BenchmarkNotePut(b *testing.B) {
	c, putConn, _ := benchGraph(b, PolicyMin())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NotePut(putConn)
	}
}

// BenchmarkNoteGet measures the consumer-side piggyback.
func BenchmarkNoteGet(b *testing.B) {
	c, _, getConn := benchGraph(b, PolicyMin())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NoteGet(getConn)
	}
}

// BenchmarkNotePutMax exercises the max-operator fold on the same path.
func BenchmarkNotePutMax(b *testing.B) {
	c, putConn, _ := benchGraph(b, PolicyMax())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NotePut(putConn)
	}
}

// BenchmarkTrendlineAdd measures one sample into a full 64-sample window
// (the AIMD estimator's default), where every Add refits the whole
// window.
func BenchmarkTrendlineAdd(b *testing.B) {
	tr := NewTrendline(time.Hour, 64, 0.5, 0.05)
	for i := 0; i < 64; i++ {
		tr.Add(time.Duration(i)*time.Millisecond, float64(50+i%7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Add(time.Duration(64+i)*time.Millisecond, float64(50+i%7))
	}
}
