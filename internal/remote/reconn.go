package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/rand"
)

// Fault-tolerance defaults. Chosen so a transient blip (a dropped
// connection, one lost response) heals in well under a second while a
// true outage degrades within a few seconds instead of wedging. The
// redial schedule defaults live in package backoff (DefaultBase and
// friends), shared with the thread supervisor's restart schedule.
const (
	defaultCallTimeout = 5 * time.Second
	defaultMaxRetries  = 3
)

// Backoff parameterizes capped exponential redial backoff with
// symmetric jitter: the n-th delay is Base·Factorⁿ capped at Cap, then
// scaled by 1 + Jitter·(2u−1) for a unit sample u. It is the shared
// backoff.Backoff schedule; Delay is a pure function, so fake-clock
// tests pin the exact schedule a seed produces.
type Backoff = backoff.Backoff

// WireInstruments carries the optional live instruments a Reconnector
// maintains. All handles are nil-safe: the zero value disables
// instrumentation entirely, and each enabled event costs one atomic op.
type WireInstruments struct {
	// Redials counts backoff-then-redial cycles entered after a wire
	// fault (or failed dial attempt).
	Redials *metrics.Counter
	// Timeouts counts calls lost to a read/write deadline expiry.
	Timeouts *metrics.Counter
	// Degraded counts operations that exhausted the retry budget and
	// reported ErrDegraded.
	Degraded *metrics.Counter
	// Reattached counts successful redial+replay cycles (the
	// ErrReattached events surfaced to callers).
	Reattached *metrics.Counter
	// PutRetries counts puts re-sent with the Retry dedup flag after a
	// transport fault left the original in doubt.
	PutRetries *metrics.Counter
}

// DialConfig configures a fault-tolerant client connection.
type DialConfig struct {
	// Addr is the server address; Channel names the hosted channel.
	Addr    string
	Channel string
	// CallTimeout bounds each bounded round trip (default 5s).
	CallTimeout time.Duration
	// GetTimeout bounds a blocking get's wait for its reply; zero waits
	// forever. See Consumer.GetLatest.
	GetTimeout time.Duration
	// Backoff shapes the redial schedule.
	Backoff Backoff
	// MaxRetries is the per-operation redial/retry budget before the
	// operation reports ErrDegraded (default 3; negative: no retries).
	MaxRetries int
	// Clock times the backoff sleeps (nil: real time). Fake-clock tests
	// pin the exact redial schedule through it.
	Clock clock.Clock
	// Dialer opens the transport (nil: TCP). Fault-injection tests wrap
	// it.
	Dialer Dialer
	// Seed fixes the jitter randomness; zero falls back to the ARU_SEED
	// environment override and then to a process-wide seeded sub-stream,
	// so redial schedules stay reproducible for differential tests.
	Seed int64
	// Window is the consumer sliding-window width replayed on every
	// (re-)attach; zero means 1.
	Window int
	// Instruments are the optional live metrics this connection
	// maintains; the zero value disables them.
	Instruments WireInstruments
}

// withDefaults normalizes the config.
func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	cfg.Backoff = cfg.Backoff.WithDefaults()
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.Dialer == nil {
		cfg.Dialer = dialTCP
	}
	if cfg.Seed == 0 {
		cfg.Seed = defaultSeed()
	}
	return cfg
}

// procRand is the package's seeded randomness source: one xorshift64
// stream per purpose (producer tokens, default redial seeds), split from
// ARU_SEED when set so differential tests replay byte-identical token
// and jitter draws, and from wall time (once, at first use) otherwise —
// producer tokens identify distinct processes to the dedup layer, so the
// unseeded default must still differ across processes. Replacing the
// package-global math/rand source also takes token minting off the
// process-wide rand lock.
var procRand = struct {
	sync.Mutex
	tokens *rand.Rand
	seeds  *rand.Rand
}{}

// procStreamsLocked lazily builds the process streams.
func procStreamsLocked() (*rand.Rand, *rand.Rand) {
	if procRand.tokens == nil {
		seed := uint64(rand.EnvSeed("ARU_SEED", 0))
		if seed == 0 {
			seed = uint64(time.Now().UnixNano())
		}
		procRand.tokens = rand.New(rand.Split(seed, 0x70_6b))
		procRand.seeds = rand.New(rand.Split(seed, 0x6a_69))
	}
	return procRand.tokens, procRand.seeds
}

// newToken returns a nonzero producer identity for idempotent puts. It
// keeps 63 bits so its uvarint on every put fits the 9 bytes gob spent.
func newToken() uint64 {
	procRand.Lock()
	defer procRand.Unlock()
	tokens, _ := procStreamsLocked()
	return tokens.Uint64()>>1 | 1
}

// defaultSeed draws a nonzero per-connection jitter seed from the
// process stream: distinct per Reconnector, reproducible under ARU_SEED.
func defaultSeed() int64 {
	procRand.Lock()
	defer procRand.Unlock()
	_, seeds := procStreamsLocked()
	for {
		if s := int64(seeds.Uint64()); s != 0 {
			return s
		}
	}
}

// Reconnector owns one logical attachment to a hosted channel and keeps
// it alive across wire faults: it redials with capped exponential
// backoff plus jitter, replays the attachment (channel name, window
// width, producer token) on every new connection, and retries the
// failed call. Application-level refusals from the server and clean
// ErrClosed shutdowns are terminal — only transport failures retry.
type Reconnector struct {
	cfg    DialConfig
	attach func(*conn) error

	// done is closed by Close so backoff sleeps on a real (or real-based
	// scaled) clock abort promptly instead of running out their delay.
	done chan struct{}

	mu         sync.Mutex
	c          *conn
	rng        *rand.Rand
	closed     bool
	ever       bool // a connection has succeeded at least once
	pending    bool // a redial happened since the last successful call
	reattaches int64
}

// newReconnector builds a reconnector; no connection is made yet.
func newReconnector(cfg DialConfig, attach func(*conn) error) *Reconnector {
	cfg = cfg.withDefaults()
	return &Reconnector{
		cfg:    cfg,
		attach: attach,
		rng:    rand.New(uint64(cfg.Seed)),
		done:   make(chan struct{}),
	}
}

// isClosed reports whether Close was called.
func (r *Reconnector) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Reattaches reports how many redial+replay cycles have succeeded.
func (r *Reconnector) Reattaches() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reattaches
}

// Close tears the connection down and makes every subsequent (and
// in-flight) operation report ErrClosed promptly — no backoff sleeps
// run once closed.
func (r *Reconnector) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	c := r.c
	r.c = nil
	r.mu.Unlock()
	close(r.done)
	if c != nil {
		c.close()
	}
}

// ensure returns the live connection, dialing and replaying the
// attachment if none exists. Dial failures are wire-tagged (retryable);
// attach refusals pass through as the server reported them.
func (r *Reconnector) ensure() (*conn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.c != nil {
		c := r.c
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()

	nc, err := r.cfg.Dialer(r.cfg.Addr, r.cfg.CallTimeout)
	if err != nil {
		return nil, wireFail("dial "+r.cfg.Addr, err)
	}
	c := newConn(nc, r.cfg.CallTimeout)
	if err := r.attach(c); err != nil {
		c.close()
		return nil, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.close()
		return nil, ErrClosed
	}
	r.c = c
	if r.ever {
		r.pending = true
		r.reattaches++
		r.cfg.Instruments.Reattached.Inc()
	}
	r.ever = true
	r.mu.Unlock()
	return c, nil
}

// invalidate discards a connection observed failing.
func (r *Reconnector) invalidate(c *conn) {
	r.mu.Lock()
	if r.c == c {
		r.c = nil
	}
	r.mu.Unlock()
	c.close()
}

// sleepBackoff sleeps the n-th redial delay on the configured clock. On
// a real (or real-based scaled) clock the sleep aborts as soon as Close
// fires; fake clocks are test-driven and release their sleepers
// explicitly.
func (r *Reconnector) sleepBackoff(n int) {
	r.cfg.Instruments.Redials.Inc()
	r.mu.Lock()
	u := r.rng.Float64()
	r.mu.Unlock()
	clock.SleepOr(r.cfg.Clock, r.cfg.Backoff.Delay(n, u), r.done)
}

// noteWireErr records the instrument-visible class of a wire failure.
func (r *Reconnector) noteWireErr(err error) {
	if errors.Is(err, ErrTimeout) {
		r.cfg.Instruments.Timeouts.Inc()
	}
}

// connect performs the initial dial+attach with the standard retry
// budget, so a cold start rides through a briefly unreachable server.
func (r *Reconnector) connect() error {
	attempts := 0
	for {
		_, err := r.ensure()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrClosed) || !isWire(err) {
			return err
		}
		r.noteWireErr(err)
		if attempts++; attempts > r.cfg.MaxRetries {
			r.cfg.Instruments.Degraded.Inc()
			return fmt.Errorf("%w (last: %v)", ErrDegraded, err)
		}
		r.sleepBackoff(attempts - 1)
	}
}

// call performs one fault-tolerant round trip: on a transport failure
// it discards the connection, redials with backoff, replays the
// attachment, and retries — marking retried puts so the server can
// deduplicate. reattached is true when the call succeeded on a
// connection established after a fault since the previous success.
func (r *Reconnector) call(req *Request, readTimeout time.Duration) (resp Response, reattached bool, err error) {
	attempts := 0
	for {
		c, err := r.ensure()
		if err != nil {
			if errors.Is(err, ErrClosed) || !isWire(err) {
				return Response{}, false, err
			}
			r.noteWireErr(err)
			if attempts++; attempts > r.cfg.MaxRetries {
				r.cfg.Instruments.Degraded.Inc()
				return Response{}, false, fmt.Errorf("%w (last: %v)", ErrDegraded, err)
			}
			if r.isClosed() {
				return Response{}, false, ErrClosed
			}
			r.sleepBackoff(attempts - 1)
			continue
		}

		resp, err := c.call(req, readTimeout)
		if err == nil || !isWire(err) {
			if err != nil && errors.Is(err, ErrClosed) {
				return resp, false, err
			}
			r.mu.Lock()
			re := r.pending
			if err == nil {
				r.pending = false
			}
			r.mu.Unlock()
			return resp, re && err == nil, err
		}

		// Transport failure mid-call: the connection is poisoned. A put
		// may or may not have been applied — mark the retry so the
		// server's (token, timestamp) dedup makes it idempotent.
		r.noteWireErr(err)
		r.invalidate(c)
		if req.Op == OpPut {
			if !req.Retry {
				r.cfg.Instruments.PutRetries.Inc()
			}
			req.Retry = true
		}
		if attempts++; attempts > r.cfg.MaxRetries {
			r.cfg.Instruments.Degraded.Inc()
			return Response{}, false, fmt.Errorf("%w (last: %v)", ErrDegraded, err)
		}
		if r.isClosed() {
			return Response{}, false, ErrClosed
		}
		r.sleepBackoff(attempts - 1)
	}
}
