// Package scenario is the repository's workload factory: a seeded
// generator that grows random pipeline DAGs (linear chains, fan-out /
// fan-in diamonds, parameterized depth and width, mixed channel/queue
// backends with valid window and capacity draws), per-stage synthetic
// cost models, and adversarial load shapes — all driven through the
// discrete-event clock so that every (seed, topology, shape) cell is
// bit-reproducible. The runner (runner.go) wires a generated Spec into
// the real Runtime and emits the paper's MU/IGC metrics plus drop
// rate, blocked-put p99, and metrics-subsystem neutrality per cell;
// cmd/scenarios pins the resulting matrix as the regression net every
// later PR is judged against (ROADMAP item 5).
package scenario

import (
	"fmt"
	"time"

	"repro/internal/rand"
)

// Topology names accepted by Generate, in matrix order.
var TopologyNames = []string{"chain", "diamond", "fanout"}

// Params seeds one scenario draw. The zero value is not valid; use
// DefaultParams and override. All durations are quantized onto the
// Grid by Generate, and every derived draw comes from Seed via
// per-stage split streams, so adding a stage never perturbs its
// siblings' draws.
type Params struct {
	// Seed drives every random draw in the scenario.
	Seed uint64
	// Topology is one of TopologyNames.
	Topology string
	// Depth is the relay-stage count per path (chain: stages between
	// source and sink; diamond/fanout: per branch). 0..MaxDepth.
	Depth int
	// Width is the branch count for diamond and fanout (ignored for
	// chain). 1..MaxWidth.
	Width int
	// Shape is one of ShapeNames.
	Shape string
	// BasePeriod is the source's nominal inter-item period before the
	// load shape modulates it.
	BasePeriod time.Duration
	// CostMin/CostMax bound the per-stage compute cost draw.
	CostMin, CostMax time.Duration
	// QueueCapMin/QueueCapMax bound the bounded-queue capacity draw.
	QueueCapMin, QueueCapMax int
	// WindowMax bounds the per-consumer window draw on channel edges
	// (1 = plain latest consumption).
	WindowMax int
	// Duration is the virtual run length.
	Duration time.Duration
	// Failures is the number of stages that panic once mid-run and are
	// restarted under supervision (0 = no failure injection).
	Failures int
}

// Generator guard rails: the fuzz target proves arbitrary Params are
// either rejected with a *ParamError or produce a runnable DAG, so the
// bounds here are load-bearing, not cosmetic.
const (
	MaxDepth    = 8
	MaxWidth    = 8
	MaxQueueCap = 1 << 16
	MaxWindow   = 16
	MinDuration = 200 * time.Millisecond
	MaxDuration = 10 * time.Minute
)

// DefaultParams returns the canonical cell parameters used by the
// pinned matrix: a mildly overloaded pipeline whose relays are
// sometimes slower than the offered rate, so every load shape
// produces a distinct drop/footprint signature.
func DefaultParams(seed uint64, topology, shape string) Params {
	return Params{
		Seed:        seed,
		Topology:    topology,
		Depth:       2,
		Width:       3,
		Shape:       shape,
		BasePeriod:  10 * time.Millisecond,
		CostMin:     2 * time.Millisecond,
		CostMax:     14 * time.Millisecond,
		QueueCapMin: 2,
		QueueCapMax: 8,
		WindowMax:   3,
		Duration:    8 * time.Second,
		Failures:    0,
	}
}

// ParamError is the typed rejection for invalid generator parameters:
// the fuzz contract is "valid DAG or *ParamError, never a panic".
type ParamError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("scenario: invalid %s (%v): %s", e.Field, e.Value, e.Reason)
}

// StageSpec is one generated thread.
type StageSpec struct {
	Name string
	// Kind is "source", "relay", "join", or "sink".
	Kind string
	// Cost is the per-item compute time (Grid-quantized).
	Cost time.Duration
	// ItemBytes is the logical size of items this stage produces
	// (sources and relays; 0 for sinks).
	ItemBytes int64
	// Inputs/Outputs are buffer indices into Spec.Buffers.
	Inputs, Outputs []int
	// Window is the consumer window applied to channel-backed inputs
	// (≥ 2 exercises windowed retention; 1 or 0 = plain latest).
	Window int
	// FailAt, when > 0, makes the stage panic once at that local
	// iteration; the runner arms supervised restart for it.
	FailAt int64
}

// BufferSpec is one generated edge buffer.
type BufferSpec struct {
	Name string
	// Index is the buffer's position in spec order.
	Index int
	// Backend is "channel" (unbounded, latest-discipline) or "queue"
	// (bounded FIFO; power-of-two capacities are ring-eligible and
	// auto-upgrade). Hand-built specs may also use
	// "remote" (a wire-backed edge; Generate never draws it because it
	// needs a live server and a real clock).
	Backend string
	// Capacity is the queue bound (0 for channels: unbounded, the
	// paper's Stampede default — ARU is what keeps them finite).
	Capacity int
	// Addr is the server address for "remote" edges.
	Addr string
	// Producers/Consumers are stage indices.
	Producers, Consumers []int
}

// Spec is a fully drawn scenario: a DAG of stages and buffers plus the
// resolved load shape. Build/Run (runner.go) wire it into a Runtime.
type Spec struct {
	Params  Params
	Shape   Shape
	Stages  []StageSpec
	Buffers []BufferSpec
}

// Generate draws a scenario from params. It returns *ParamError for
// out-of-range parameters and never panics; any returned Spec wires
// into a Runtime whose Start succeeds (the fuzz target enforces both).
func Generate(p Params) (*Spec, error) {
	shape, ok := ShapeByName(p.Shape)
	if !ok {
		return nil, &ParamError{"Shape", p.Shape, "unknown load shape"}
	}
	switch p.Topology {
	case "chain", "diamond", "fanout":
	default:
		return nil, &ParamError{"Topology", p.Topology, "unknown topology"}
	}
	if p.Depth < 0 || p.Depth > MaxDepth {
		return nil, &ParamError{"Depth", p.Depth, fmt.Sprintf("must be in [0,%d]", MaxDepth)}
	}
	if p.Topology != "chain" && (p.Width < 1 || p.Width > MaxWidth) {
		return nil, &ParamError{"Width", p.Width, fmt.Sprintf("must be in [1,%d]", MaxWidth)}
	}
	if p.BasePeriod <= 0 || p.BasePeriod > time.Second {
		return nil, &ParamError{"BasePeriod", p.BasePeriod, "must be in (0, 1s]"}
	}
	if p.CostMin <= 0 || p.CostMax < p.CostMin || p.CostMax > 100*time.Millisecond {
		return nil, &ParamError{"CostMin/CostMax", fmt.Sprintf("%v/%v", p.CostMin, p.CostMax), "need 0 < min ≤ max ≤ 100ms"}
	}
	if p.QueueCapMin < 1 || p.QueueCapMax < p.QueueCapMin || p.QueueCapMax > MaxQueueCap {
		return nil, &ParamError{"QueueCapMin/QueueCapMax", fmt.Sprintf("%d/%d", p.QueueCapMin, p.QueueCapMax), fmt.Sprintf("need 1 ≤ min ≤ max ≤ %d", MaxQueueCap)}
	}
	if p.WindowMax < 1 || p.WindowMax > MaxWindow {
		return nil, &ParamError{"WindowMax", p.WindowMax, fmt.Sprintf("must be in [1,%d]", MaxWindow)}
	}
	if p.Duration < MinDuration || p.Duration > MaxDuration {
		return nil, &ParamError{"Duration", p.Duration, fmt.Sprintf("must be in [%v,%v]", MinDuration, MaxDuration)}
	}
	if p.Failures < 0 {
		return nil, &ParamError{"Failures", p.Failures, "must be ≥ 0"}
	}

	p.BasePeriod = QuantizeUp(p.BasePeriod)
	p.CostMin, p.CostMax = QuantizeUp(p.CostMin), QuantizeUp(p.CostMax)
	p.Duration = QuantizeUp(p.Duration)

	g := &builder{p: p}
	switch p.Topology {
	case "chain":
		g.chain()
	case "diamond":
		g.diamond()
	case "fanout":
		g.fanout()
	}
	g.drawFailures()
	return &Spec{Params: p, Shape: shape, Stages: g.stages, Buffers: g.buffers}, nil
}

// builder accumulates the drawn DAG. Every stage and buffer draws from
// its own split stream of the master seed (streams are keyed by spec
// index), so the grammar can grow without reshuffling existing draws.
type builder struct {
	p       Params
	stages  []StageSpec
	buffers []BufferSpec
}

// stream returns draw stream k of the scenario seed.
func (b *builder) stream(k uint64) *rand.Rand {
	return rand.New(rand.Split(b.p.Seed, k))
}

// addStage appends a stage with its cost and size draws taken from the
// stage's own stream.
func (b *builder) addStage(kind string) int {
	i := len(b.stages)
	r := b.stream(uint64(i))
	cost := QuantizeUp(r.Duration(b.p.CostMin, b.p.CostMax+1))
	if kind == "source" {
		// Sources pay a light acquisition cost; the offered rate comes
		// from the load shape, not the compute draw.
		cost = QuantizeUp(b.p.CostMin)
	}
	st := StageSpec{
		Name:      fmt.Sprintf("%s%d", kind, i),
		Kind:      kind,
		Cost:      cost,
		ItemBytes: 1024 + r.Int63n(15*1024),
		Window:    1 + r.Intn(b.p.WindowMax),
	}
	if kind == "sink" {
		st.ItemBytes = 0
	}
	b.stages = append(b.stages, st)
	return i
}

// addBuffer appends a buffer whose backend and capacity draws come
// from its own stream (offset so stage draws are untouched).
func (b *builder) addBuffer() int {
	i := len(b.buffers)
	r := b.stream(1<<32 + uint64(i))
	bs := BufferSpec{Name: fmt.Sprintf("buf%d", i), Index: i}
	if r.Intn(2) == 0 {
		bs.Backend = "channel" // unbounded, latest-discipline
	} else {
		bs.Backend = "queue"
		bs.Capacity = b.p.QueueCapMin + r.Intn(b.p.QueueCapMax-b.p.QueueCapMin+1)
		if r.Intn(2) == 0 {
			// Round half the queues up to a power of two: exactly the
			// shape that auto-upgrades to the lock-free ring backend
			// when run with a single consumer.
			bs.Capacity = nextPow2(bs.Capacity)
		}
	}
	b.buffers = append(b.buffers, bs)
	return i
}

// connect wires stage s → buffer b → stage d.
func (b *builder) connect(s, buf, d int) {
	b.stages[s].Outputs = append(b.stages[s].Outputs, buf)
	b.stages[d].Inputs = append(b.stages[d].Inputs, buf)
	b.buffers[buf].Producers = append(b.buffers[buf].Producers, s)
	b.buffers[buf].Consumers = append(b.buffers[buf].Consumers, d)
}

// chain draws source → relay^Depth → sink.
func (b *builder) chain() {
	prev := b.addStage("source")
	for i := 0; i < b.p.Depth; i++ {
		buf := b.addBuffer()
		cur := b.addStage("relay")
		b.connect(prev, buf, cur)
		prev = cur
	}
	buf := b.addBuffer()
	sink := b.addStage("sink")
	b.connect(prev, buf, sink)
}

// diamond draws source → fanoutBuf → Width relay branches (each Depth
// deep) → join → sink: fan-out at a shared buffer, fan-in at a thread.
func (b *builder) diamond() {
	src := b.addStage("source")
	fan := b.addBuffer()
	b.stages[src].Outputs = append(b.stages[src].Outputs, fan)
	b.buffers[fan].Producers = append(b.buffers[fan].Producers, src)

	branchEnds := make([]int, 0, b.p.Width)
	for w := 0; w < b.p.Width; w++ {
		prev := -1
		for d := 0; d <= b.p.Depth; d++ {
			cur := b.addStage("relay")
			if d == 0 {
				b.stages[cur].Inputs = append(b.stages[cur].Inputs, fan)
				b.buffers[fan].Consumers = append(b.buffers[fan].Consumers, cur)
			} else {
				buf := b.addBuffer()
				b.connect(prev, buf, cur)
			}
			prev = cur
		}
		end := b.addBuffer()
		b.stages[prev].Outputs = append(b.stages[prev].Outputs, end)
		b.buffers[end].Producers = append(b.buffers[end].Producers, prev)
		branchEnds = append(branchEnds, end)
	}
	join := b.addStage("join")
	for _, end := range branchEnds {
		b.stages[join].Inputs = append(b.stages[join].Inputs, end)
		b.buffers[end].Consumers = append(b.buffers[end].Consumers, join)
	}
	out := b.addBuffer()
	sink := b.addStage("sink")
	b.connect(join, out, sink)
}

// fanout draws source → fanoutBuf → Width independent branches, each
// Depth relays deep and ending in its own sink (a multi-sink DAG).
func (b *builder) fanout() {
	src := b.addStage("source")
	fan := b.addBuffer()
	b.stages[src].Outputs = append(b.stages[src].Outputs, fan)
	b.buffers[fan].Producers = append(b.buffers[fan].Producers, src)
	for w := 0; w < b.p.Width; w++ {
		prev := -1
		for d := 0; d < b.p.Depth; d++ {
			cur := b.addStage("relay")
			if d == 0 {
				b.stages[cur].Inputs = append(b.stages[cur].Inputs, fan)
				b.buffers[fan].Consumers = append(b.buffers[fan].Consumers, cur)
			} else {
				buf := b.addBuffer()
				b.connect(prev, buf, cur)
			}
			prev = cur
		}
		sink := b.addStage("sink")
		if prev < 0 {
			// Depth 0: the sink consumes the fan buffer directly.
			b.stages[sink].Inputs = append(b.stages[sink].Inputs, fan)
			b.buffers[fan].Consumers = append(b.buffers[fan].Consumers, sink)
		} else {
			buf := b.addBuffer()
			b.connect(prev, buf, sink)
		}
	}
}

// drawFailures marks Failures distinct non-source stages to panic once
// at a drawn early iteration.
func (b *builder) drawFailures() {
	if b.p.Failures <= 0 {
		return
	}
	r := b.stream(1 << 48)
	candidates := make([]int, 0, len(b.stages))
	for i, st := range b.stages {
		if st.Kind != "source" {
			candidates = append(candidates, i)
		}
	}
	n := b.p.Failures
	if n > len(candidates) {
		n = len(candidates)
	}
	for k := 0; k < n; k++ {
		// Draw without replacement.
		j := k + r.Intn(len(candidates)-k)
		candidates[k], candidates[j] = candidates[j], candidates[k]
		b.stages[candidates[k]].FailAt = int64(5 + r.Intn(20))
	}
}

// nextPow2 rounds n up to a power of two (min 2), capped at
// MaxQueueCap so drawn capacities stay in the validated range.
func nextPow2(n int) int {
	p := 2
	for p < n && p < MaxQueueCap {
		p <<= 1
	}
	return p
}
