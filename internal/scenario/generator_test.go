package scenario

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// validateSpec checks the structural DAG invariants every generated
// spec must satisfy (the same rules graph.Validate enforces at Start).
func validateSpec(t *testing.T, s *Spec) {
	t.Helper()
	if len(s.Stages) == 0 || len(s.Buffers) == 0 {
		t.Fatalf("empty spec: %d stages, %d buffers", len(s.Stages), len(s.Buffers))
	}
	sources, sinks := 0, 0
	for _, st := range s.Stages {
		switch st.Kind {
		case "source":
			sources++
			if len(st.Inputs) != 0 || len(st.Outputs) == 0 {
				t.Fatalf("source %s has %d ins / %d outs", st.Name, len(st.Inputs), len(st.Outputs))
			}
		case "sink":
			sinks++
			if len(st.Inputs) == 0 || len(st.Outputs) != 0 {
				t.Fatalf("sink %s has %d ins / %d outs", st.Name, len(st.Inputs), len(st.Outputs))
			}
		case "relay", "join":
			if len(st.Inputs) == 0 || len(st.Outputs) == 0 {
				t.Fatalf("%s %s is not connected on both sides", st.Kind, st.Name)
			}
		default:
			t.Fatalf("unknown stage kind %q", st.Kind)
		}
		if st.Cost < Grid || st.Cost%Grid != 0 {
			t.Fatalf("stage %s cost %v is off the grid", st.Name, st.Cost)
		}
		if st.Window < 1 || st.Window > s.Params.WindowMax {
			t.Fatalf("stage %s window %d out of [1,%d]", st.Name, st.Window, s.Params.WindowMax)
		}
	}
	if sources != 1 {
		t.Fatalf("want exactly 1 source, got %d", sources)
	}
	if sinks < 1 {
		t.Fatalf("want ≥1 sink, got %d", sinks)
	}
	for i, b := range s.Buffers {
		if b.Index != i {
			t.Fatalf("buffer %d has index %d", i, b.Index)
		}
		if len(b.Producers) == 0 || len(b.Consumers) == 0 {
			t.Fatalf("buffer %s: %d producers, %d consumers", b.Name, len(b.Producers), len(b.Consumers))
		}
		switch b.Backend {
		case "channel":
			if b.Capacity != 0 {
				t.Fatalf("channel %s has capacity %d (must be unbounded)", b.Name, b.Capacity)
			}
		case "queue":
			if b.Capacity < s.Params.QueueCapMin || b.Capacity > MaxQueueCap {
				t.Fatalf("queue %s capacity %d out of range", b.Name, b.Capacity)
			}
		default:
			t.Fatalf("unknown backend %q", b.Backend)
		}
		// Cross-references must be consistent both ways.
		for _, si := range b.Producers {
			if !contains(s.Stages[si].Outputs, i) {
				t.Fatalf("buffer %s lists producer %s which does not list it as output", b.Name, s.Stages[si].Name)
			}
		}
		for _, si := range b.Consumers {
			if !contains(s.Stages[si].Inputs, i) {
				t.Fatalf("buffer %s lists consumer %s which does not list it as input", b.Name, s.Stages[si].Name)
			}
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestGenerateTopologies(t *testing.T) {
	for _, topo := range TopologyNames {
		for _, shape := range ShapeNames {
			p := DefaultParams(1719, topo, shape)
			s, err := Generate(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", topo, shape, err)
			}
			validateSpec(t, s)
		}
	}
}

func TestGenerateDepthWidthSweep(t *testing.T) {
	for depth := 0; depth <= MaxDepth; depth += 2 {
		for width := 1; width <= MaxWidth; width += 3 {
			for _, topo := range TopologyNames {
				p := DefaultParams(7, topo, "steady")
				p.Depth, p.Width = depth, width
				s, err := Generate(p)
				if err != nil {
					t.Fatalf("%s d=%d w=%d: %v", topo, depth, width, err)
				}
				validateSpec(t, s)
			}
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	p := DefaultParams(42, "diamond", "flash")
	p.Failures = 2
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Spec.Shape holds a func value (never DeepEqual); compare the
	// drawn structure.
	if !reflect.DeepEqual(a.Params, b.Params) || !reflect.DeepEqual(a.Stages, b.Stages) || !reflect.DeepEqual(a.Buffers, b.Buffers) {
		t.Fatal("same params produced different specs")
	}
	// A different seed must actually change the draws.
	p.Seed = 43
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Stages, c.Stages) && reflect.DeepEqual(a.Buffers, c.Buffers) {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestGenerateFailureDraws(t *testing.T) {
	p := DefaultParams(9, "chain", "steady")
	p.Failures = 3
	s, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, st := range s.Stages {
		if st.FailAt > 0 {
			n++
			if st.Kind == "source" {
				t.Fatalf("failure injected into the source (%s): the offered load must survive", st.Name)
			}
		}
	}
	if n != 3 {
		t.Fatalf("want 3 failure-marked stages, got %d", n)
	}
}

func TestGenerateRejects(t *testing.T) {
	base := func() Params { return DefaultParams(1, "chain", "steady") }
	cases := []struct {
		name  string
		mut   func(*Params)
		field string
	}{
		{"bad topology", func(p *Params) { p.Topology = "torus" }, "Topology"},
		{"bad shape", func(p *Params) { p.Shape = "square" }, "Shape"},
		{"negative depth", func(p *Params) { p.Depth = -1 }, "Depth"},
		{"huge depth", func(p *Params) { p.Depth = MaxDepth + 1 }, "Depth"},
		{"zero width", func(p *Params) { p.Topology = "diamond"; p.Width = 0 }, "Width"},
		{"zero period", func(p *Params) { p.BasePeriod = 0 }, "BasePeriod"},
		{"inverted costs", func(p *Params) { p.CostMin = 10 * time.Millisecond; p.CostMax = time.Millisecond }, "CostMin/CostMax"},
		{"zero queue cap", func(p *Params) { p.QueueCapMin = 0 }, "QueueCapMin/QueueCapMax"},
		{"zero window", func(p *Params) { p.WindowMax = 0 }, "WindowMax"},
		{"tiny duration", func(p *Params) { p.Duration = time.Millisecond }, "Duration"},
		{"negative failures", func(p *Params) { p.Failures = -1 }, "Failures"},
	}
	for _, tc := range cases {
		p := base()
		tc.mut(&p)
		_, err := Generate(p)
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want *ParamError, got %v", tc.name, err)
		}
		if pe.Field != tc.field {
			t.Fatalf("%s: want field %q, got %q (%v)", tc.name, tc.field, pe.Field, pe)
		}
	}
}

func TestShapePeriodsOnGrid(t *testing.T) {
	base := 10 * time.Millisecond
	total := 8 * time.Second
	for _, name := range ShapeNames {
		sh, ok := ShapeByName(name)
		if !ok {
			t.Fatalf("shape %q missing", name)
		}
		for now := time.Duration(0); now < total; now += 37 * time.Millisecond {
			p := sh.Period(base, now, total)
			if p < Grid || p%Grid != 0 {
				t.Fatalf("%s at %v: period %v off the grid", name, now, p)
			}
			if p > time.Second {
				t.Fatalf("%s at %v: period %v implausibly long", name, now, p)
			}
		}
	}
	if _, ok := ShapeByName("nope"); ok {
		t.Fatal("unknown shape resolved")
	}
}
