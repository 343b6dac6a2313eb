package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// The smoke test runs every workload and the probe suite at toy size. It
// asserts shape, never timing: each declared metric is emitted exactly once,
// finite, under a well-formed name, and BENCHMARK.json declares the same
// set.

var toyCfg = runCfg{seed: 42, seconds: 0.3, toy: true, root: ".."}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := toyCfg
			cfg.trace = traced
			res, err := runOne(&w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			switch {
			case res.Correct:
			case raceDetector && w.Name == "tracker-virtual":
				t.Logf("%s trace=%v under the race detector: %v", w.Name, traced, res.problems)
			default:
				t.Errorf("%s trace=%v: checks failed: %v", w.Name, traced, res.problems)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want positive", w.Name, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, v.Unit, m.Unit)
				}
			}
		}
	}
}

func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// The seed reaches exactly three inputs: the order of the wire payloads,
// the tracker's random streams, and the cell the scenario pass starts at.
func TestSeedChangesInputsOnly(t *testing.T) {
	sizes := func(seed int64) (order, sorted []int) {
		_, raw := wirePayloads(seed)
		for _, p := range raw {
			order = append(order, len(p))
		}
		sorted = append([]int(nil), order...)
		sort.Ints(sorted)
		return order, sorted
	}
	o1, s1 := sizes(1)
	o2, s2 := sizes(2)
	o1again, _ := sizes(1)
	if !reflect.DeepEqual(o1, o1again) {
		t.Error("the same seed gave two payload orders")
	}
	if reflect.DeepEqual(o1, o2) {
		t.Error("payload order ignores the seed")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the seed changed which payloads are sent, not just their order")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sb := newSpanLog().thread(batchSpans)
	run := func(seed int64) string {
		a, _, err := runTracker(trackerCases[1], seed, 30e9, 5e9, sb)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(a)
	}
	if run(1) != run(1) {
		t.Error("the same tracker seed gave two results")
	}
	if run(1) == run(2) {
		t.Error("tracker results ignore the seed")
	}
}
