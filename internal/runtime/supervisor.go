// Thread supervision: panic containment, restart policies, permanent-
// failure propagation, and the stall watchdog.
//
// The paper's premise is that feedback must always reflect *live*
// consumers; PR 3 enforced that across the wire (staleness decay of
// remote summary-STP), and this file enforces it in-process. Every
// thread body now runs under a supervisor loop: a panic is recovered
// into a typed *ThreadFailure instead of killing the process, a failed
// body is restarted on a pure, fake-clock-testable capped-exponential
// backoff schedule (shared with the remote redial schedule, package
// backoff), and when the restart budget is exhausted the failure is
// propagated — peers blocked on the dead thread's buffers observe
// ErrPeerFailed, and the controller releases its summary-STP from the
// backward fold so upstream producers return to their own measured
// period. A clock-aware heartbeat (stamped by Ctx.Sync) feeds an
// optional watchdog that flags threads whose heartbeat age exceeds a
// stall TTL, turning a silently hung stage into an observable
// condition.
package runtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/rand"
)

// captureStack snapshots the failing goroutine's stack for the
// ThreadFailure.
func captureStack() []byte { return debug.Stack() }

// DefaultMaxRestarts is the restart budget applied when a RestartPolicy
// leaves MaxRestarts at zero.
const DefaultMaxRestarts = 5

// ThreadState is one thread's supervision lifecycle state.
//
//	StateNew ──Start──▶ StateRunning ──body returns nil/ErrShutdown──▶ StateStopped
//	                        │  ▲
//	        failure,budget  │  │ backoff elapsed
//	        remaining       ▼  │
//	                    StateRestarting ──Stop during backoff──▶ StateStopped
//	                        │
//	        budget          ▼
//	        exhausted   StateFailed  (permanent: peers get ErrPeerFailed,
//	                                  feedback released)
type ThreadState uint8

const (
	// StateNew is a declared thread before Start.
	StateNew ThreadState = iota
	// StateRunning is a thread whose body is executing.
	StateRunning
	// StateRestarting is a failed thread sleeping its restart backoff.
	StateRestarting
	// StateFailed is a permanently failed thread: its restart budget is
	// exhausted (or its policy is RestartNever), its attachments have
	// been released, and its failure is reported by Wait.
	StateFailed
	// StateStopped is a thread whose body returned cleanly (nil or
	// ErrShutdown), or that was stopped mid-restart.
	StateStopped
)

// String returns the lowercase state name.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateRestarting:
		return "restarting"
	case StateFailed:
		return "failed"
	case StateStopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MarshalText renders the state name, so ThreadState fields serialize
// readably in JSON health views.
func (s ThreadState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ThreadFailure is one failure of a thread body: either a recovered
// panic (Value and Stack set) or a non-shutdown error return (Err set).
// It is the error type Wait reports for permanently failed threads;
// errors.As extracts it and errors.Is sees through Err.
type ThreadFailure struct {
	// Thread is the failing thread's name.
	Thread string
	// Value is the recovered panic value (nil for error returns).
	Value any
	// Stack is the goroutine stack captured at recover time.
	Stack []byte
	// Err is the body's error return (nil for panics).
	Err error
}

// Error renders the failure.
func (f *ThreadFailure) Error() string {
	if f.Err != nil {
		return fmt.Sprintf("thread %q failed: %v", f.Thread, f.Err)
	}
	return fmt.Sprintf("thread %q panicked: %v", f.Thread, f.Value)
}

// Unwrap exposes the body's error return to errors.Is/As chains.
func (f *ThreadFailure) Unwrap() error { return f.Err }

// RestartPolicy configures RestartOnFailure supervision for one thread.
// The zero value means defaults everywhere.
type RestartPolicy struct {
	// Backoff shapes the restart delay schedule (defaults: 50ms base,
	// 2s cap, factor 2, jitter 0.2 — the shared backoff schedule). Set
	// Jitter to -1 for a deterministic, fake-clock-pinnable schedule.
	Backoff backoff.Backoff
	// MaxRestarts is the restart budget within Window (default 5). When
	// the budget is exhausted the thread fails permanently.
	MaxRestarts int
	// Window is the sliding interval the budget applies to; restarts
	// older than Window stop counting (and the backoff attempt index
	// resets with them). Zero means the budget spans the whole run.
	Window time.Duration
	// Seed fixes the jitter randomness for deterministic tests; zero
	// derives a seed from wall time.
	Seed int64
}

// ThreadOption configures a thread at AddThread time.
type ThreadOption func(*Thread)

// WithRestartOnFailure enables supervised restarts: when the body
// panics or returns a non-shutdown error, it is restarted on p's
// backoff schedule until p's budget is exhausted, at which point the
// thread fails permanently. The default (no option) is RestartNever:
// the first failure is permanent — the pre-supervision behavior, minus
// the process crash on panic.
func WithRestartOnFailure(p RestartPolicy) ThreadOption {
	return func(t *Thread) {
		t.restart = p
		t.hasRestart = true
	}
}

// WithThreadTenant tags the thread with a tenant/pipeline name, carried
// as a `tenant` label on every one of its metric instruments (the
// thread-side counterpart of the buffer WithTenant option). It has no
// behavioural effect.
func WithThreadTenant(name string) ThreadOption {
	return func(t *Thread) { t.tenant = name }
}

// WithStallTTL sets a per-thread heartbeat TTL for the stall watchdog,
// overriding Options.StallTTL. The watchdog must be enabled (some TTL
// set) for stall detection to run at all.
func WithStallTTL(ttl time.Duration) ThreadOption {
	return func(t *Thread) { t.stallTTL = ttl }
}

// ThreadHealth is the supervision snapshot of one thread.
type ThreadHealth struct {
	// Name is the thread's name.
	Name string
	// State is the current lifecycle state.
	State ThreadState
	// Restarts counts completed restarts over the thread's lifetime.
	Restarts int
	// Stalled reports that the stall watchdog currently flags the
	// thread (heartbeat older than its TTL while running).
	Stalled bool
	// HeartbeatAge is the time since the last Ctx.Sync (or thread
	// start).
	HeartbeatAge time.Duration
	// LastFailure is the most recent failure, nil if none.
	LastFailure *ThreadFailure
}

// HealthSnapshot is a point-in-time supervision view of the whole
// application, ordered by thread name.
type HealthSnapshot struct {
	// Threads holds one entry per declared thread.
	Threads []ThreadHealth
}

// Healthy reports whether no thread is permanently failed or currently
// stalled.
func (h HealthSnapshot) Healthy() bool {
	for _, t := range h.Threads {
		if t.State == StateFailed || t.Stalled {
			return false
		}
	}
	return true
}

// Health returns the supervision snapshot. Valid any time after Start;
// before Start every thread reports StateNew.
func (rt *Runtime) Health() HealthSnapshot {
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	now := rt.clk.Now()
	snap := HealthSnapshot{Threads: make([]ThreadHealth, 0, len(threads))}
	for _, t := range threads {
		snap.Threads = append(snap.Threads, t.health(now))
	}
	sort.Slice(snap.Threads, func(i, j int) bool { return snap.Threads[i].Name < snap.Threads[j].Name })
	return snap
}

// health builds one thread's ThreadHealth at clock reading now.
func (t *Thread) health(now time.Duration) ThreadHealth {
	t.supMu.Lock()
	defer t.supMu.Unlock()
	age := now - time.Duration(t.lastBeat.Load())
	if age < 0 {
		age = 0
	}
	return ThreadHealth{
		Name:         t.name,
		State:        t.state,
		Restarts:     t.restarts,
		Stalled:      t.stalled,
		HeartbeatAge: age,
		LastFailure:  t.lastFailure,
	}
}

// State returns the thread's current lifecycle state.
func (t *Thread) State() ThreadState {
	t.supMu.Lock()
	defer t.supMu.Unlock()
	return t.state
}

// Restarts returns the number of completed restarts.
func (t *Thread) Restarts() int {
	t.supMu.Lock()
	defer t.supMu.Unlock()
	return t.restarts
}

// LastFailure returns the most recent failure, nil if none.
func (t *Thread) LastFailure() *ThreadFailure {
	t.supMu.Lock()
	defer t.supMu.Unlock()
	return t.lastFailure
}

// setState transitions the lifecycle state.
func (t *Thread) setState(s ThreadState) {
	t.supMu.Lock()
	t.state = s
	t.supMu.Unlock()
}

// stopRequested reports whether the runtime asked the thread to stop.
func (t *Thread) stopRequested() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// runOnce executes one body incarnation, recovering panics and mapping
// the outcome to nil (clean exit) or a *ThreadFailure.
func (t *Thread) runOnce() (f *ThreadFailure) {
	defer func() {
		if v := recover(); v != nil {
			f = &ThreadFailure{Thread: t.name, Value: v, Stack: captureStack()}
			if t.tm.panics != nil {
				t.tm.panics.Inc()
			}
		}
	}()
	if err := t.run(); err != nil && !errors.Is(err, ErrShutdown) && !errors.Is(err, ErrDraining) {
		return &ThreadFailure{Thread: t.name, Err: err}
	}
	// ErrDraining is a clean exit: the body observed its quiesce (or a
	// sealed downstream buffer) during a graceful drain and returned.
	return nil
}

// supervise is the per-thread supervisor loop Start spawns: it runs the
// body, contains failures, restarts per policy, and on permanent
// failure propagates the death to peers and the controller.
func (t *Thread) supervise() {
	t.setState(StateRunning)
	for {
		f := t.runOnce()
		if f == nil {
			t.setState(StateStopped)
			return
		}
		t.supMu.Lock()
		t.lastFailure = f
		t.supMu.Unlock()

		delay, ok := t.nextRestartDelay(f)
		if !ok {
			t.setState(StateFailed)
			t.rt.failPermanently(t, f)
			return
		}
		t.setState(StateRestarting)
		// The backoff sleep ends early when Stop fires on a real (or
		// real-based scaled) clock; other clocks release it themselves.
		if clock.SleepOr(t.rt.clk, delay, t.stop) || t.rt.draining.Load() {
			// Drain is a terminal lifecycle phase: a restart granted
			// before it began is abandoned, never resumed mid-flush.
			t.setState(StateStopped)
			return
		}
		t.supMu.Lock()
		t.restarts++
		t.restartTimes = append(t.restartTimes, t.rt.clk.Now())
		t.supMu.Unlock()
		if t.tm.restarts != nil {
			t.tm.restarts.Inc()
		}
		t.lastBeat.Store(int64(t.rt.clk.Now()))
		t.setState(StateRunning)
	}
}

// nextRestartDelay decides whether failure f is restartable and, if so,
// returns the backoff delay to sleep first. Not restartable: no policy
// (RestartNever), stop already requested, a budget-window exhausted, or
// an ErrPeerFailed return — restarting cannot resurrect a dead peer, so
// the failure cascades instead of looping.
func (t *Thread) nextRestartDelay(f *ThreadFailure) (time.Duration, bool) {
	if !t.hasRestart || t.stopRequested() || t.rt.draining.Load() {
		// No restarts during a graceful drain: a restarted body would
		// inject work into a graph that is flushing to empty.
		return 0, false
	}
	if f.Err != nil && errors.Is(f.Err, ErrPeerFailed) {
		return 0, false
	}
	t.supMu.Lock()
	defer t.supMu.Unlock()
	now := t.rt.clk.Now()
	if w := t.restart.Window; w > 0 {
		keep := t.restartTimes[:0]
		for _, at := range t.restartTimes {
			if now-at <= w {
				keep = append(keep, at)
			}
		}
		t.restartTimes = keep
	}
	n := len(t.restartTimes)
	max := t.restart.MaxRestarts
	if max <= 0 {
		max = DefaultMaxRestarts
	}
	if n >= max {
		return 0, false
	}
	// n doubles as the backoff attempt index: pruning old restarts out
	// of the window also resets the schedule after a quiet period.
	return t.restart.Backoff.Delay(n, t.rng.Float64()), true
}

// failPermanently propagates a thread's permanent failure: the error is
// recorded for Wait, the dead thread's buffer attachments are released
// so blocked peers observe ErrPeerFailed instead of hanging, and the
// controller fades its feedback so upstream producers return to their
// own measured period — the in-process mirror of the remote staleness
// decay.
func (rt *Runtime) failPermanently(t *Thread, f *ThreadFailure) {
	rt.recordFailure(f)
	if t.replicaSlot > 0 {
		// A replica shares its ports with the primary and its sibling
		// replicas: failing the shared attachments would cascade the
		// death to incarnations that are alive and well. The failure is
		// recorded and the slot leaves the controller fold via
		// finishReplica; the stage itself lives on.
		if t.tm.failures != nil {
			t.tm.failures.Inc()
		}
		return
	}
	if t.tm.failures != nil {
		t.tm.failures.Inc()
		t.tm.faded.Inc()
	}
	// Inputs: the dead thread was these buffers' consumer. Failure-aware
	// detach flips their producers' capacity waits to ErrPeerFailed once
	// no consumer remains; backends without failure awareness (remote
	// endpoints, whose peers live elsewhere) fall back to a plain
	// detach. Either way the controller drops the dead consumer's
	// feedback slot so its last summary-STP stops throttling upstream.
	for _, p := range t.ins {
		if pf, ok := p.buf.(buffer.PeerFailer); ok {
			pf.FailConsumer(p.conn)
		} else {
			p.buf.DetachConsumer(p.conn)
		}
		rt.ctrl.DropConsumer(p.conn)
	}
	// Outputs: the dead thread was these buffers' producer. Once every
	// producer of a buffer has failed, its consumers' blocking gets
	// report ErrPeerFailed (after draining what is already buffered,
	// where the discipline allows).
	for _, p := range t.outs {
		if pf, ok := p.buf.(buffer.PeerFailer); ok {
			pf.FailProducer(p.conn)
		}
	}
	rt.ctrl.FadeNode(t.id)
}

// recordFailure appends one permanent failure for Wait to report.
func (rt *Runtime) recordFailure(err error) {
	rt.failMu.Lock()
	rt.failures = append(rt.failures, err)
	rt.failMu.Unlock()
}

// watchdogEvery returns the stall watchdog's sweep period, zero when
// no TTL is in use: Options.StallTTL is unset and no thread carries
// WithStallTTL. The period is a quarter of the smallest TTL, at least
// 1ms.
func (rt *Runtime) watchdogEvery() time.Duration {
	minTTL := rt.opts.StallTTL
	for _, t := range rt.threads {
		if t.stallTTL > 0 && (minTTL <= 0 || t.stallTTL < minTTL) {
			minTTL = t.stallTTL
		}
	}
	if minTTL <= 0 {
		return 0
	}
	return max(minTTL/4, time.Millisecond)
}

// duty is one periodic step of the control loop.
type duty struct {
	every, next time.Duration
	step        func()
}

// control is the runtime's one background participant: the stall
// watchdog's sweep (when watchdog is positive) and then each
// Options.ControlLoops duty, in slice order, each once per its period,
// sleeping until the earliest deadline between rounds. Duties due at
// the same instant run in that order. A step that overruns its period
// skips the ticks it missed rather than firing back to back; on the
// virtual and manual clocks steps take no clock time, so one duty
// sleeps exactly its period each round. It runs until Stop.
func (rt *Runtime) control(watchdog time.Duration) {
	var duties []duty
	if watchdog > 0 {
		duties = append(duties, duty{every: watchdog, step: rt.checkStalls})
	}
	for _, cl := range rt.opts.ControlLoops {
		if every, step := cl(rt); every > 0 && step != nil {
			duties = append(duties, duty{every: every, step: step})
		}
	}
	if len(duties) == 0 {
		return
	}
	now := rt.clk.Now()
	for i := range duties {
		duties[i].next = now + duties[i].every
	}
	for {
		next := duties[0].next
		for _, d := range duties[1:] {
			next = min(next, d.next)
		}
		if clock.SleepOr(rt.clk, next-rt.clk.Now(), rt.stopCh) {
			return
		}
		now := rt.clk.Now()
		for i := range duties {
			if d := &duties[i]; d.next <= now {
				d.step()
				d.next += d.every * ((rt.clk.Now()-d.next)/d.every + 1)
			}
		}
	}
}

// checkStalls performs one watchdog sweep. Sweeps are suppressed while
// a graceful drain is in progress: a thread flushing a deep backlog
// stops calling Sync on its usual cadence, and flagging (or acting on)
// that as a stall would fight the drain it is part of.
func (rt *Runtime) checkStalls() {
	if rt.draining.Load() {
		return
	}
	now := rt.clk.Now()
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	for _, t := range threads {
		ttl := t.stallTTL
		if ttl <= 0 {
			ttl = rt.opts.StallTTL
		}
		if ttl <= 0 {
			continue
		}
		age := now - time.Duration(t.lastBeat.Load())
		t.supMu.Lock()
		running := t.state == StateRunning
		wasStalled := t.stalled
		nowStalled := running && age > ttl
		t.stalled = nowStalled
		t.supMu.Unlock()
		if nowStalled && !wasStalled {
			if t.tm.stallEpisodes != nil {
				t.tm.stallEpisodes.Inc()
			}
			if rt.opts.OnStall != nil {
				rt.opts.OnStall(t.name, age)
			}
		}
	}
}

// newSupervisionRNG builds the jitter source for one thread's restart
// schedule: a split stream of the shared xorshift64 generator, keyed by
// the thread's name so sibling threads (and elastic replicas) jitter on
// decorrelated schedules while staying byte-reproducible. A zero policy
// seed falls back to the ARU_SEED environment override instead of wall
// time, so fixed-seed runs pin the exact restart schedule even on the
// virtual clock.
func newSupervisionRNG(seed int64, name string) *rand.Rand {
	if seed == 0 {
		seed = rand.EnvSeed("ARU_SEED", 0)
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.Split(uint64(seed), h.Sum64()))
}
