package trace_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// TestAnalyzeInPlaceMatchesEvents is the oracle for the in-place pass:
// Analyze over the recorder's chunks and AnalyzeEvents over a copied
// event list must agree field for field on a real trace that spans many
// event chunks and provenance arena chunks.
func TestAnalyzeInPlaceMatchesEvents(t *testing.T) {
	const d, warm = 60 * time.Second, 5 * time.Second
	app, err := tracker.New(tracker.Config{Hosts: 1, Seed: 42, Policy: core.PolicyMin()})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Runtime.RunFor(d); err != nil {
		t.Fatal(err)
	}
	rec := app.Recorder
	events := rec.Events()
	ids := 0
	for _, ev := range events {
		ids += len(ev.Items)
	}
	// Events fill chunks of 1024 and provenance ids arena chunks of 4096.
	if len(events) <= 8*1024 || ids <= 4096 {
		t.Fatalf("trace too small to span chunks: %d events, %d provenance ids", len(events), ids)
	}

	for _, opt := range []trace.AnalyzeOptions{{}, {From: warm, To: d}} {
		got, err := trace.Analyze(rec, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.AnalyzeEvents(events, opt)
		if err != nil {
			t.Fatal(err)
		}
		compareAnalyses(t, got, want)
	}

	// A nil recorder analyses like an empty event list, error included.
	for _, opt := range []trace.AnalyzeOptions{{}, {From: time.Second}} {
		got, gotErr := trace.Analyze(nil, opt)
		want, wantErr := trace.AnalyzeEvents(nil, opt)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%+v: Analyze(nil) error %v, AnalyzeEvents(nil) error %v", opt, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Analyze(nil) = %+v, AnalyzeEvents(nil) = %+v", opt, got, want)
		}
	}
}

func compareAnalyses(t *testing.T, got, want *trace.Analysis) {
	t.Helper()
	scalars := func(a *trace.Analysis) trace.Analysis {
		s := *a
		s.All, s.Wasted, s.IGC = footprintScalars(a.All), footprintScalars(a.Wasted), footprintScalars(a.IGC)
		s.OutputTimes, s.Latencies, s.Items = nil, nil, nil
		return s
	}
	if g, w := scalars(got), scalars(want); !reflect.DeepEqual(g, w) {
		t.Errorf("scalar fields differ:\n in place %+v\n  copied  %+v", g, w)
	}
	if !reflect.DeepEqual(got.Latencies, want.Latencies) {
		t.Errorf("Latencies differ: %d vs %d", len(got.Latencies), len(want.Latencies))
	}
	if !reflect.DeepEqual(got.OutputTimes, want.OutputTimes) {
		t.Errorf("OutputTimes differ: %d vs %d", len(got.OutputTimes), len(want.OutputTimes))
	}
	for _, fp := range []struct {
		name      string
		got, want trace.Footprint
	}{{"All", got.All, want.All}, {"Wasted", got.Wasted, want.Wasted}, {"IGC", got.IGC, want.IGC}} {
		g, w := fp.got.Series, fp.want.Series
		if g.Len() != w.Len() {
			t.Errorf("%s series: %d points in place, %d copied", fp.name, g.Len(), w.Len())
			continue
		}
		for i := 0; i < g.Len(); i++ {
			gt, gv := g.Point(i)
			wt, wv := w.Point(i)
			if gt != wt || gv != wv {
				t.Errorf("%s series point %d: (%v, %v) in place, (%v, %v) copied", fp.name, i, gt, gv, wt, wv)
				break
			}
		}
	}
	if len(got.Items) != len(want.Items) {
		t.Errorf("Items: %d in place, %d copied", len(got.Items), len(want.Items))
	}
	for id, w := range want.Items {
		if g, ok := got.Items[id]; !ok || !reflect.DeepEqual(*g, *w) {
			t.Errorf("item %d: in place %+v, copied %+v", id, g, w)
			return
		}
	}
}

// footprintScalars drops the series, which compareAnalyses checks point
// by point.
func footprintScalars(f trace.Footprint) trace.Footprint {
	f.Series = nil
	return f
}
