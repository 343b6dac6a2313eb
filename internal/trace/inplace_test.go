package trace_test

import (
	"fmt"
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
		for _, d := range trace.DiffAnalyses(got, want) {
			t.Errorf("%+v in place vs copied: %s", opt, d)
		}
	}

	// A nil recorder analyses like an empty event list, error included.
	for _, opt := range []trace.AnalyzeOptions{{}, {From: time.Second}} {
		got, gotErr := trace.Analyze(nil, opt)
		want, wantErr := trace.AnalyzeEvents(nil, opt)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%+v: Analyze(nil) error %v, AnalyzeEvents(nil) error %v", opt, gotErr, wantErr)
		}
		for _, d := range trace.DiffAnalyses(got, want) {
			t.Errorf("%+v: Analyze(nil) vs AnalyzeEvents(nil): %s", opt, d)
		}
	}
}

// TestAnalyzeMatchesReferenceTracker runs the pass and the reference
// oracle over the paper's experiment: both tracker configurations under
// no ARU, ARU-min and ARU-max, each analysed over the whole run and over
// the measured window. They must agree on every field, every series
// point and every item.
func TestAnalyzeMatchesReferenceTracker(t *testing.T) {
	const d, warm = 300 * time.Second, 15 * time.Second
	policies := []struct {
		name string
		p    core.Policy
	}{{"off", core.PolicyOff()}, {"min", core.PolicyMin()}, {"max", core.PolicyMax()}}
	for _, hosts := range []int{1, 5} {
		for _, pol := range policies {
			name := fmt.Sprintf("hosts=%d/aru=%s", hosts, pol.name)
			app, err := tracker.New(tracker.Config{Hosts: hosts, Seed: 42, Policy: pol.p})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Runtime.RunFor(d); err != nil {
				t.Fatal(err)
			}
			events := app.Recorder.Events()
			for _, opt := range []trace.AnalyzeOptions{{}, {From: warm, To: d}} {
				want, err := trace.ReferenceAnalyze(events, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := trace.Analyze(app.Recorder, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, diff := range trace.DiffAnalyses(got, want) {
					t.Errorf("%s %+v: %s", name, opt, diff)
				}
			}
		}
	}
}
