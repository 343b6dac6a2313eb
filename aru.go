// Package aru is the public surface of this reproduction of "Adaptive
// Resource Utilization via Feedback Control for Streaming Applications"
// (Mandviwala, Harel, Ramachandran, Knobe — IPDPS 2005).
//
// It re-exports the building blocks an application author needs:
//
//   - The Stampede-style runtime: timestamped channels and queues, a
//     declared task graph, one goroutine per thread, dead-timestamp
//     garbage collection, and a simulated cluster substrate
//     (buses + links) for resource accounting.
//
//   - The ARU mechanism itself: per-thread sustainable-thread-period
//     (STP) measurement via Ctx.Sync (the paper's periodicity_sync()),
//     backward propagation of summary-STPs piggybacked on every put/get,
//     min/max/user-defined compression operators, and automatic source
//     throttling.
//
//   - The evaluation workload (the color-based people tracker) and the
//     experiment harness that regenerates every table and figure of the
//     paper (see EXPERIMENTS.md).
//
// A minimal application:
//
//	clk := aru.NewVirtualClock()
//	rt := aru.New(aru.Options{Clock: clk, ARU: aru.PolicyMin()})
//	ch := rt.MustAddChannel("frames", 0)
//	src := rt.MustAddThread("camera", 0, func(ctx *aru.Ctx) error {
//	    for ts := aru.Timestamp(1); !ctx.Stopped(); ts++ {
//	        ctx.Compute(5 * time.Millisecond)
//	        if err := ctx.Put(ctx.Outs()[0], ts, nil, 1<<20); err != nil {
//	            return err
//	        }
//	        ctx.Sync() // measures STP; throttles to downstream feedback
//	    }
//	    return nil
//	})
//	src.MustOutput(ch)
//	// ... consumers via rt.MustAddThread + thread.MustInput(ch) ...
//	err := rt.RunFor(10 * time.Second)
package aru

import (
	"time"

	"repro/internal/backoff"
	"repro/internal/bench"
	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/kiosk"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tracker"
	"repro/internal/transport"
	"repro/internal/vt"
)

// Core runtime types.
type (
	// Runtime is one streaming application instance.
	Runtime = runtime.Runtime
	// Options configures a Runtime.
	Options = runtime.Options
	// Ctx is the per-thread execution context.
	Ctx = runtime.Ctx
	// Msg is a consumed item as seen by a thread body.
	Msg = runtime.Msg
	// Body is a thread's task loop.
	Body = runtime.Body
	// Thread is a declared computation thread.
	Thread = runtime.Thread
	// BufferRef is an endpoint descriptor for any declared buffer; a
	// registered backend materializes it at Start.
	BufferRef = runtime.BufferRef
	// ChannelRef names a declared channel.
	ChannelRef = runtime.ChannelRef
	// QueueRef names a declared queue.
	QueueRef = runtime.QueueRef
	// BufferOption customizes a buffer declaration (capacity, remote
	// name, remote fault-tolerance tuning, ...).
	BufferOption = runtime.BufferOption
	// Buffer is the pluggable buffer-endpoint interface every backend
	// (channel, queue, remote, ...) implements.
	Buffer = buffer.Buffer
	// BufferCaps describes what a buffer backend supports.
	BufferCaps = buffer.Caps
	// InPort is a thread input connection.
	InPort = runtime.InPort
	// OutPort is a thread output connection.
	OutPort = runtime.OutPort
	// PutSpec describes one item of a batched Ctx.PutBatch call.
	PutSpec = runtime.PutSpec
	// ItemPool recycles buffer item allocations; each Runtime owns one,
	// shared by every in-process backend it materializes.
	ItemPool = buffer.ItemPool
)

// Virtual time.
type (
	// Timestamp indexes the application's virtual time.
	Timestamp = vt.Timestamp
)

// Virtual-time bounds.
const (
	// TimestampNone sorts before every valid timestamp.
	TimestampNone = vt.None
	// TimestampInfinity sorts after every valid timestamp.
	TimestampInfinity = vt.Infinity
)

// ARU mechanism types.
type (
	// Policy selects the feedback behaviour of a run.
	Policy = core.Policy
	// STP is a sustainable thread period.
	STP = core.STP
	// Compressor folds a backwardSTP vector.
	Compressor = core.Compressor
	// CompressorFunc adapts a user-defined compression function.
	CompressorFunc = core.Func
	// Filter smooths incoming summary-STP streams (extension).
	Filter = core.Filter
	// Estimator is the pluggable feedback-estimation stage between
	// compressed summary-STPs and the pacing throttle (extension,
	// DESIGN.md §4h). Nil factory = the paper's raw propagation.
	Estimator = core.Estimator
	// EstimatorFactory builds a fresh estimator per thread node; plug it
	// in via Policy.WithEstimator (or Policy.EstimatorFactory).
	EstimatorFactory = core.EstimatorFactory
	// EstimatorState is an estimator's observable state (status output,
	// metrics, Snapshot).
	EstimatorState = core.EstimatorState
	// AIMDConfig tunes the AIMD estimator: window, back-off factor,
	// additive step, hysteresis margin, sustain threshold, trend gain,
	// target bounds, expiry. The zero value of every field selects a
	// sensible default.
	AIMDConfig = core.AIMDConfig
	// TrendState classifies the feedback trend (underuse/hold/overuse).
	TrendState = core.TrendState
	// AIMDPhase is the rate controller's actuation phase
	// (backoff/hold/speedup).
	AIMDPhase = core.AIMDPhase
)

// Trend and phase constants, re-exported for switch statements over
// EstimatorState.
const (
	TrendUnderuse = core.TrendUnderuse
	TrendHold     = core.TrendHold
	TrendOveruse  = core.TrendOveruse
	PhaseBackoff  = core.PhaseBackoff
	PhaseHold     = core.PhaseHold
	PhaseSpeedup  = core.PhaseSpeedup
)

// Clock abstraction.
type (
	// Clock supplies runtime time.
	Clock = clock.Clock
)

// Cluster simulation.
type (
	// Cluster bundles per-host buses and the interconnect.
	Cluster = transport.Cluster
	// ClusterSpec configures a simulated cluster.
	ClusterSpec = transport.ClusterSpec
	// LinkSpec describes a network link.
	LinkSpec = transport.LinkSpec
)

// Garbage collection.
type (
	// Collector decides which items of a channel are dead.
	Collector = gc.Collector
)

// Measurement.
type (
	// Recorder collects trace events.
	Recorder = trace.Recorder
	// Analysis is the postmortem result.
	Analysis = trace.Analysis
)

// Graph identities.
type (
	// NodeID identifies a task-graph node.
	NodeID = graph.NodeID
	// ConnID identifies a task-graph connection.
	ConnID = graph.ConnID
)

// ErrShutdown reports that an operation was interrupted by Stop; thread
// bodies return it (or the error wrapping it) for a clean exit.
var ErrShutdown = runtime.ErrShutdown

// ErrDraining reports a put rejected because the runtime (or the target
// buffer) is draining gracefully: sources are quiesced and no new work
// is admitted while the backlog flushes. Bodies should return it; the
// supervisor treats it as a clean exit, exactly like ErrShutdown.
var ErrDraining = runtime.ErrDraining

// ErrPortKind reports a get/put variant the port's buffer backend does
// not support (e.g. GetQueue on a channel input, a windowed input on a
// FIFO queue): a typed wiring/call-time error, never a panic.
var ErrPortKind = runtime.ErrPortKind

// ErrDegraded reports that a wire-backed put/get exhausted its redial
// and retry budget against an unreachable server. The connection is not
// torn down: the next operation retries from scratch, and ARU's
// staleness decay meanwhile returns upstream producers to local pacing.
var ErrDegraded = runtime.ErrDegraded

// ErrReattached is informational: the operation SUCCEEDED, but only
// after the client redialed the server and replayed its attachment.
// Results returned alongside it are valid; filter it with errors.Is
// when only hard failures matter.
var ErrReattached = runtime.ErrReattached

// ErrPeerFailed reports that a get or put can never complete because
// every peer on the other side of the buffer failed permanently — the
// supervision subsystem's failure propagation. Bodies should return it;
// the cascade is deliberate and resolves whole dead subgraphs instead
// of hanging them.
var ErrPeerFailed = runtime.ErrPeerFailed

// Thread supervision (panic containment, restart policies, stall
// watchdog — see Options.StallTTL and AddThread options).
type (
	// ThreadOption configures a thread's supervision at AddThread time.
	ThreadOption = runtime.ThreadOption
	// RestartPolicy shapes supervised restarts: backoff schedule,
	// budget, sliding window, seed.
	RestartPolicy = runtime.RestartPolicy
	// Backoff is the capped-exponential-with-jitter delay schedule
	// shared by restart supervision and remote redialing.
	Backoff = backoff.Backoff
	// ThreadFailure is one contained body failure: a recovered panic
	// (Value, Stack) or a non-shutdown error return (Err).
	ThreadFailure = runtime.ThreadFailure
	// ThreadState is a thread's supervision lifecycle state.
	ThreadState = runtime.ThreadState
	// ThreadHealth is the supervision snapshot of one thread.
	ThreadHealth = runtime.ThreadHealth
	// HealthSnapshot is Runtime.Health()'s application-wide view.
	HealthSnapshot = runtime.HealthSnapshot
	// DrainReport is the outcome of a graceful Runtime.Drain: duration,
	// totals of flushed (drained) and explicitly-shed items, and the
	// per-buffer accounting behind the conservation invariant
	// produced == delivered + shed.
	DrainReport = runtime.DrainReport
	// BufferDrain is one buffer's drain accounting in a DrainReport.
	BufferDrain = runtime.BufferDrain
)

// Thread lifecycle states.
const (
	// StateNew is a declared thread before Start.
	StateNew = runtime.StateNew
	// StateRunning is a thread whose body is executing.
	StateRunning = runtime.StateRunning
	// StateRestarting is a failed thread sleeping its restart backoff.
	StateRestarting = runtime.StateRestarting
	// StateFailed is a permanently failed thread.
	StateFailed = runtime.StateFailed
	// StateStopped is a thread that exited cleanly.
	StateStopped = runtime.StateStopped
)

// WithRestartOnFailure enables supervised restarts for a thread: panics
// and non-shutdown errors restart the body on p's backoff schedule
// until the budget is exhausted, then the thread fails permanently and
// its peers observe ErrPeerFailed. Without it the first failure is
// permanent (RestartNever) — contained and propagated, never a crash.
func WithRestartOnFailure(p RestartPolicy) ThreadOption {
	return runtime.WithRestartOnFailure(p)
}

// WithStallTTL sets a per-thread heartbeat TTL for the stall watchdog,
// overriding Options.StallTTL.
func WithStallTTL(ttl time.Duration) ThreadOption {
	return runtime.WithStallTTL(ttl)
}

// WithTenant tags a declared buffer with a tenant/pipeline name; the tag
// rides on all its metric instruments as a `tenant` label so
// multi-tenant runs sharing one registry stay distinguishable.
func WithTenant(name string) BufferOption {
	return runtime.WithTenant(name)
}

// WithThreadTenant is WithTenant for threads.
func WithThreadTenant(name string) ThreadOption {
	return runtime.WithThreadTenant(name)
}

// RegisterBufferBackend adds a buffer backend to the registry, making it
// available to endpoint descriptors by name. The built-ins are
// "channel", "queue", "ring", and "remote". A backend whose Caps declare
// GetAt must implement the timestamped GetAt face; Start refuses it with
// ErrPortKind otherwise.
func RegisterBufferBackend(name string, b buffer.Backend) { buffer.Register(name, b) }

// BufferBackend pairs a backend factory with its capabilities for
// RegisterBufferBackend.
type BufferBackend = buffer.Backend

// New creates a runtime.
func New(opts Options) *Runtime { return runtime.New(opts) }

// PolicyOff returns the No-ARU baseline policy.
func PolicyOff() Policy { return core.PolicyOff() }

// PolicyMin returns ARU with the conservative min compression operator,
// the paper's safe default: producers sustain their fastest consumer.
func PolicyMin() Policy { return core.PolicyMin() }

// PolicyMax returns ARU with the aggressive max operator: producers slow
// to their slowest consumer, correct when downstream data dependencies
// make faster production pure waste.
func PolicyMax() Policy { return core.PolicyMax() }

// MinCompressor and MaxCompressor are the built-in operators, exposed for
// per-node overrides via Policy.PerNode.
var (
	MinCompressor = core.Min
	MaxCompressor = core.Max
)

// NewEWMAFilter returns an exponentially-weighted-moving-average
// summary-STP filter (the paper's future-work extension).
func NewEWMAFilter(alpha float64) Filter { return core.NewEWMAFilter(alpha) }

// NewMedianFilter returns a sliding-window median summary-STP filter.
func NewMedianFilter(window int) Filter { return core.NewMedianFilter(window) }

// NewAIMDEstimator returns an EstimatorFactory building the filtered,
// AIMD-damped estimator: a sliding-window rate estimate, a trendline
// slope filter, and multiplicative-backoff/additive-speedup pacing
// (DESIGN.md §4h). Plug it in with PolicyMin().WithEstimator(...).
func NewAIMDEstimator(cfg AIMDConfig) EstimatorFactory { return core.AIMDFactory(cfg) }

// NewRawEstimator returns the pass-through estimator backend: the pacing
// target is the raw summary-STP, exactly the paper's behaviour. Leaving
// the factory nil is equivalent and cheaper.
func NewRawEstimator() Estimator { return core.NewRawEstimator() }

// DefaultAIMDConfig returns the default AIMD estimator tuning.
func DefaultAIMDConfig() AIMDConfig { return core.DefaultAIMDConfig() }

// NewVirtualClock returns the discrete-event clock: simulated time jumps
// to the next deadline whenever all threads are blocked, so experiments
// run as fast as the host executes them with exact virtual timing.
func NewVirtualClock() Clock { return clock.NewVirtual() }

// NewRealClock returns a wall clock.
func NewRealClock() Clock { return clock.NewReal() }

// NewScaledClock returns a wall clock running scale× faster than real
// time.
func NewScaledClock(scale float64) Clock {
	return clock.NewScaled(clock.NewReal(), scale)
}

// NewCluster builds a simulated cluster on the given clock.
func NewCluster(clk Clock, spec ClusterSpec) *Cluster {
	return transport.NewCluster(clk, spec)
}

// GigabitEthernet approximates the paper's interconnect.
var GigabitEthernet = transport.GigabitEthernet

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// Analyze runs the postmortem analysis over [from, to) of a recorder's
// events (to=0 means the last event).
func Analyze(r *Recorder, from, to time.Duration) (*Analysis, error) {
	return trace.Analyze(r, trace.AnalyzeOptions{From: from, To: to})
}

// Garbage collectors.
var (
	// NewDGC returns the dead-timestamp collector (the paper's setup).
	NewDGC = gc.NewDeadTimestamp
	// NewTGC returns the transparent global-virtual-time collector.
	NewTGC = gc.NewTransparent
	// NewNoGC returns the collector that never frees.
	NewNoGC = gc.NewNone
)

// Tracker workload.
type (
	// TrackerConfig assembles one tracker run.
	TrackerConfig = tracker.Config
	// TrackerApp is a built tracker application.
	TrackerApp = tracker.App
	// TrackerTiming holds the stage periods.
	TrackerTiming = tracker.Timing
	// TrackerSizes holds the per-item sizes.
	TrackerSizes = tracker.Sizes
)

// NewTracker builds the color-based people tracker workload.
func NewTracker(cfg TrackerConfig) (*TrackerApp, error) { return tracker.New(cfg) }

// DefaultTrackerTiming returns the calibrated tracker stage periods.
func DefaultTrackerTiming() TrackerTiming { return tracker.DefaultTiming() }

// Kiosk workload (the paper's Figure 1 two-fidelity pipeline).
type (
	// KioskConfig assembles one smart-kiosk run.
	KioskConfig = kiosk.Config
	// KioskApp is a built kiosk application.
	KioskApp = kiosk.App
)

// NewKiosk builds the Figure 1 smart-kiosk pipeline: digitizer → low-fi
// tracker → decision (queue) → high-fi tracker → GUI.
func NewKiosk(cfg KioskConfig) (*KioskApp, error) { return kiosk.New(cfg) }

// PaperTrackerSizes returns the paper's per-item sizes (738 kB frames,
// 246 kB masks, 981 kB histogram models, 68 B locations).
func PaperTrackerSizes() TrackerSizes { return tracker.PaperSizes() }

// Experiment harness.
type (
	// Scenario describes one experiment cell.
	Scenario = bench.Scenario
	// Suite holds the full evaluation grid.
	Suite = bench.Suite
	// ShapeCheck is one qualitative expectation from the paper.
	ShapeCheck = bench.ShapeCheck
)

// Distributed operation over real sockets.
type (
	// RemoteServer hosts channels for remote producers and consumers
	// over TCP, with summary-STP feedback piggybacked on the protocol.
	RemoteServer = remote.Server
	// RemoteServerConfig configures a RemoteServer.
	RemoteServerConfig = remote.ServerConfig
	// RemoteProducer is a remote producer connection.
	RemoteProducer = remote.Producer
	// RemoteConsumer is a remote consumer connection.
	RemoteConsumer = remote.Consumer
	// RemoteItem is one item consumed over the wire.
	RemoteItem = remote.Item
	// RemoteTuning shapes a wire-backed endpoint's fault tolerance:
	// call/get deadlines, redial backoff, retry budget, and the
	// summary-STP staleness TTL. Pass it via WithRemoteTuning.
	RemoteTuning = buffer.RemoteTuning
	// RemoteBackoff parameterizes capped exponential redial backoff
	// with symmetric jitter for raw remote connections.
	RemoteBackoff = remote.Backoff
	// RemoteDialConfig configures a raw fault-tolerant producer or
	// consumer connection (DialRemoteProducerConfig and friends).
	RemoteDialConfig = remote.DialConfig
)

// WithCapacity bounds a declared buffer to n items (0 = unbounded).
// A bounded power-of-two queue with a single consumer is eligible for
// the transparent lock-free ring upgrade, and an explicit AddRing
// requires a bound (DESIGN.md §4g).
func WithCapacity(n int) BufferOption {
	return runtime.WithCapacity(n)
}

// WithRemoteTuning sets a wire-backed endpoint's fault tolerance when
// declaring it with Runtime.AddRemoteChannel.
func WithRemoteTuning(t RemoteTuning) BufferOption {
	return runtime.WithRemoteTuning(t)
}

// NewRemoteServer starts a TCP channel server.
func NewRemoteServer(cfg RemoteServerConfig, channels ...string) (*RemoteServer, error) {
	return remote.NewServer(cfg, channels...)
}

// DialRemoteProducer attaches a producer connection to a remote channel.
func DialRemoteProducer(addr, channel string) (*RemoteProducer, error) {
	return remote.DialProducer(addr, channel)
}

// DialRemoteConsumer attaches a consumer connection to a remote channel.
func DialRemoteConsumer(addr, channel string) (*RemoteConsumer, error) {
	return remote.DialConsumer(addr, channel)
}

// DialRemoteProducerConfig attaches a producer with explicit
// fault-tolerance configuration (deadlines, backoff, retry budget).
func DialRemoteProducerConfig(cfg RemoteDialConfig) (*RemoteProducer, error) {
	return remote.DialProducerConfig(cfg)
}

// DialRemoteConsumerConfig attaches a consumer with explicit
// fault-tolerance configuration.
func DialRemoteConsumerConfig(cfg RemoteDialConfig) (*RemoteConsumer, error) {
	return remote.DialConsumerConfig(cfg)
}

// Live metrics and observability (see Options.Metrics, Options.
// MetricsAddr, and DESIGN.md §4f). Gauges are computed when the
// registry is gathered.
type (
	// MetricsRegistry is the zero-dependency live metrics registry:
	// atomic counters, gauges, and fixed-bucket histograms, rendered as
	// Prometheus text or JSON. Nil disables metrics at zero hot-path
	// cost.
	MetricsRegistry = metrics.Registry
	// MetricLabels attaches label key/values to a registered series.
	MetricLabels = metrics.Labels
	// Snapshot is Runtime.Snapshot()'s consistent point-in-time view:
	// controller state, buffer occupancy, and thread health, all
	// collected by one call.
	Snapshot = runtime.Snapshot
	// NodeStatus is one node's ARU state in a Snapshot.
	NodeStatus = runtime.NodeStatus
	// BufferStatus is one buffer endpoint's state in a Snapshot.
	BufferStatus = runtime.BufferStatus
)

// NewMetricsRegistry returns an empty live metrics registry to pass as
// Options.Metrics (and, for distributed runs, RemoteServerConfig.
// Metrics).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WithMetricsAddr returns opts with the observability HTTP endpoint
// enabled on addr (":0" binds an ephemeral port reported by
// Runtime.MetricsAddr), allocating a metrics registry if opts carries
// none. The endpoint serves /metrics (Prometheus text), /metrics.json,
// /status, and /health.
func WithMetricsAddr(opts Options, addr string) Options {
	opts.MetricsAddr = addr
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	return opts
}

// Elastic scheduling (see internal/sched and DESIGN.md §4k).
type (
	// ElasticConfig parameterizes the elastic, resource-aware scheduler:
	// the target per-stage service period it defends, the stages it may
	// scale, replica caps, hysteresis bands, and host placement weights.
	ElasticConfig = sched.Config
	// ControlLoop builds one periodic duty of the runtime's control loop
	// (Options.ControlLoops): called once on the loop's first turn, it
	// returns the duty's period and step, which runs until Stop.
	ControlLoop = runtime.ControlLoop
)

// WithElastic returns opts with the elastic scheduler's control loop
// installed: a clock-aware feedback loop that detects the bottleneck
// stage (max summary-STP plus inbound blocked-put pressure), replicates
// it into a supervised worker pool behind its buffer, and retires
// replicas drain-safely when the load subsides. Without this call no
// scheduler runs and the runtime behaves exactly as before — the
// elastic layer is strictly opt-in.
//
//	rt := aru.New(aru.WithElastic(aru.Options{...}, aru.ElasticConfig{
//		TargetPeriod: 40 * time.Millisecond,
//	}))
func WithElastic(opts Options, cfg ElasticConfig) Options {
	opts.ControlLoops = append(opts.ControlLoops, sched.Loop(cfg))
	return opts
}

// STPUnknown is the "no feedback yet" summary-STP value.
const STPUnknown = core.Unknown

// RunScenario executes one experiment cell.
func RunScenario(sc Scenario) (*bench.Result, error) { return bench.Run(sc) }

// RunSuite executes the full evaluation grid (both configurations, all
// three policies).
func RunSuite(envelope Scenario) (*Suite, error) { return bench.RunSuite(envelope) }
