package remote

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/vt"
)

// ErrClosed reports that the remote channel or server shut down
// cleanly. It is terminal: the reconnector does not redial through it,
// so pipeline shutdown stays prompt.
var ErrClosed = errors.New("remote: closed")

// ErrTimeout reports that one call exceeded its read/write deadline —
// the stalled-peer signal. It is always accompanied by errWire, so the
// reconnector treats it as retryable.
var ErrTimeout = errors.New("remote: call deadline exceeded")

// ErrDegraded reports that an operation exhausted its redial/retry
// budget: the peer is unreachable and the operation did not take
// effect. It wraps buffer.ErrDegraded so the runtime's typed error
// surfaces through errors.Is across layers.
var ErrDegraded = fmt.Errorf("remote: wire degraded: %w", buffer.ErrDegraded)

// ErrReattached is informational: the operation succeeded, but only
// after the connection was redialed and its attachment replayed. It
// wraps buffer.ErrReattached.
var ErrReattached = fmt.Errorf("remote: connection re-attached: %w", buffer.ErrReattached)

// errWire tags transport-level failures (send/receive/dial errors,
// malformed frames, deadline expiry) apart from application-level
// refusals the server answered with. Only wire failures are retryable.
var errWire = errors.New("remote: wire failure")

// isWire reports whether an error is a retryable transport failure.
func isWire(err error) bool { return errors.Is(err, errWire) }

// conn is one attached TCP connection speaking the request/response
// protocol. It is safe for concurrent use, serializing requests. Every
// round trip is bounded by deadlines: the write (and the read, for
// bounded operations) must complete within timeout, so a hung server
// surfaces as ErrTimeout instead of wedging every subsequent call on
// this connection behind the mutex.
type conn struct {
	mu      sync.Mutex
	nc      net.Conn
	w       *wire
	timeout time.Duration // write deadline and default read deadline
}

func newConn(nc net.Conn, timeout time.Duration) *conn {
	return &conn{nc: nc, w: newWire(nc), timeout: timeout}
}

// Dialer opens the transport for a client connection. Tests inject
// fault-scripted dialers; nil means plain TCP.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// dialTCP is the default Dialer.
func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// call performs one request/response round trip. readTimeout bounds the
// wait for the reply; zero waits forever (blocking gets on an idle
// channel are not a fault). A deadline expiry can leave a frame half
// sent or half read, so the caller must discard the connection
// afterwards.
func (c *conn) call(req *Request, readTimeout time.Duration) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	if err := c.w.writeRequest(req); err != nil {
		if errors.Is(err, errFrameTooLarge) {
			return Response{}, err // nothing was sent; a retry cannot help
		}
		return Response{}, wireFail("send", err)
	}
	if readTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(readTimeout))
	} else {
		c.nc.SetReadDeadline(time.Time{})
	}
	var resp Response
	if err := c.w.readResponse(&resp); err != nil {
		return Response{}, wireFail("receive", err)
	}
	if resp.Err == ErrClosedText {
		return resp, ErrClosed
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// wireFail wraps a transport failure with the errWire tag, adding
// ErrTimeout when a deadline fired.
func wireFail(stage string, err error) error {
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("%w: %w: %s: %v", errWire, ErrTimeout, stage, err)
	}
	return fmt.Errorf("%w: %s: %v", errWire, stage, err)
}

func (c *conn) close() error { return c.nc.Close() }

// Producer is a remote producer connection to one channel. It survives
// wire faults: calls carry deadlines, failed connections are redialed
// with capped exponential backoff, the attachment is replayed, and a
// put retried after a lost response is idempotent (keyed by the
// producer's token and timestamp on the server).
type Producer struct {
	r     *Reconnector
	token uint64
	// Summary holds the channel's latest summary-STP, refreshed by each
	// Put's piggybacked reply — the feedback a producing thread folds
	// into its own backwardSTP vector.
	mu      sync.Mutex
	summary core.STP
}

// DialProducer attaches a new producer connection to the named channel
// on the server at addr with default fault tolerance.
func DialProducer(addr, channel string) (*Producer, error) {
	return DialProducerConfig(DialConfig{Addr: addr, Channel: channel})
}

// DialProducerConfig attaches a producer with explicit fault-tolerance
// configuration. The initial dial uses the same retry budget as every
// later call, so a briefly unreachable server does not fail a cold
// start.
func DialProducerConfig(cfg DialConfig) (*Producer, error) {
	p := &Producer{token: newToken()}
	channel := cfg.Channel
	token := p.token
	p.r = newReconnector(cfg, func(c *conn) error {
		_, err := c.call(&Request{Op: OpAttachProducer, Channel: channel, Token: token}, c.timeout)
		return err
	})
	if err := p.r.connect(); err != nil {
		p.r.Close()
		return nil, err
	}
	return p, nil
}

// Put inserts an item and returns the channel's summary-STP piggybacked
// on the reply. A put that succeeded only after a reconnect returns the
// valid summary together with ErrReattached (informational); a put that
// exhausted the retry budget returns ErrDegraded and was NOT applied.
func (p *Producer) Put(ts vt.Timestamp, payload []byte, size int64) (core.STP, error) {
	resp, reattached, err := p.r.call(&Request{Op: OpPut, TS: ts, Payload: payload, Size: size, Token: p.token}, p.r.cfg.CallTimeout)
	if err != nil {
		return core.Unknown, err
	}
	p.mu.Lock()
	p.summary = resp.SummarySTP
	p.mu.Unlock()
	if reattached {
		return resp.SummarySTP, ErrReattached
	}
	return resp.SummarySTP, nil
}

// Summary returns the channel's last piggybacked summary-STP.
func (p *Producer) Summary() core.STP {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.summary
}

// Reattaches reports how many times the connection was redialed and
// re-attached after a wire fault.
func (p *Producer) Reattaches() int64 { return p.r.Reattaches() }

// Close releases the connection.
func (p *Producer) Close() error { p.r.Close(); return nil }

// Consumer is a remote consumer connection to one channel, with the
// same fault tolerance as Producer. A reconnect re-sends the channel
// name and window width, rebuilding the server-side attachment; the
// fresh session's guarantee restarts, so a reattached consumer may see
// an item it already consumed — get-latest discipline makes that safe.
type Consumer struct {
	r *Reconnector
}

// DialConsumer attaches a new consumer connection to the named channel
// on the server at addr with default fault tolerance.
func DialConsumer(addr, channel string) (*Consumer, error) {
	return DialConsumerConfig(DialConfig{Addr: addr, Channel: channel})
}

// DialConsumerConfig attaches a consumer with explicit fault-tolerance
// configuration.
func DialConsumerConfig(cfg DialConfig) (*Consumer, error) {
	c := &Consumer{}
	channel := cfg.Channel
	window := cfg.Window
	if window < 1 {
		window = 1
	}
	c.r = newReconnector(cfg, func(cc *conn) error {
		_, err := cc.call(&Request{Op: OpAttachConsumer, Channel: channel, Window: window}, cc.timeout)
		return err
	})
	if err := c.r.connect(); err != nil {
		c.r.Close()
		return nil, err
	}
	return c, nil
}

// Item is one consumed remote item.
type Item struct {
	TS      vt.Timestamp
	Payload []byte
	Size    int64
	// SkippedTS lists the stale timestamps this consumer passed over.
	SkippedTS []vt.Timestamp
}

// GetLatest blocks until an unseen item is available and consumes the
// freshest one. summary piggybacks the consumer's summary-STP to the
// channel (pass core.Unknown if the consumer has none yet). The wait is
// bounded by the configured GetTimeout (zero: forever); on expiry the
// connection is treated as suspect and redialed — set GetTimeout above
// the longest expected idle gap.
func (c *Consumer) GetLatest(summary core.STP) (Item, error) {
	resp, reattached, err := c.r.call(&Request{Op: OpGetLatest, SummarySTP: summary}, c.r.cfg.GetTimeout)
	if err != nil {
		return Item{}, err
	}
	it := Item{TS: resp.TS, Payload: resp.Payload, Size: resp.Size, SkippedTS: resp.SkippedTS}
	if reattached {
		return it, ErrReattached
	}
	return it, nil
}

// TryGetLatest is the non-blocking variant; ok is false when nothing
// fresh exists.
func (c *Consumer) TryGetLatest(summary core.STP) (Item, bool, error) {
	resp, reattached, err := c.r.call(&Request{Op: OpTryGetLatest, SummarySTP: summary}, c.r.cfg.CallTimeout)
	if err != nil {
		return Item{}, false, err
	}
	if !resp.OK {
		if reattached {
			return Item{}, false, ErrReattached
		}
		return Item{}, false, nil
	}
	it := Item{TS: resp.TS, Payload: resp.Payload, Size: resp.Size, SkippedTS: resp.SkippedTS}
	if reattached {
		return it, true, ErrReattached
	}
	return it, true, nil
}

// Reattaches reports how many times the connection was redialed and
// re-attached after a wire fault.
func (c *Consumer) Reattaches() int64 { return c.r.Reattaches() }

// Close releases the connection.
func (c *Consumer) Close() error { c.r.Close(); return nil }

// Stats queries a channel's occupancy over a fresh connection. timeout
// bounds the dial and the round trip; zero means the default (5s).
func Stats(addr, channel string, timeout time.Duration) (items int, bytes int64, err error) {
	if timeout <= 0 {
		timeout = defaultCallTimeout
	}
	nc, err := dialTCP(addr, timeout)
	if err != nil {
		return 0, 0, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	c := newConn(nc, timeout)
	defer c.close()
	resp, err := c.call(&Request{Op: OpStats, Channel: channel}, timeout)
	if err != nil {
		return 0, 0, err
	}
	return resp.Items, resp.Bytes, nil
}
