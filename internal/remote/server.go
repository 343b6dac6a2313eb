package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/channel"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/vt"
)

// ServerConfig configures a channel server.
type ServerConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// port). Ignored when Listener is set.
	Addr string
	// Listener, when non-nil, is used instead of listening on Addr.
	// Fault-injection tests pass a scripted listener here.
	Listener net.Listener
	// Clock times blocking and frees; nil means a real clock (remote
	// deployments run in real time).
	Clock clock.Clock
	// Collector reclaims dead items; nil means DGC.
	Collector gc.Collector
	// Compressor folds each channel's backwardSTP vector; nil means Min.
	Compressor core.Compressor
	// Metrics, when non-nil, receives the server's live instruments
	// (dedup hits per hosted channel). Nil disables instrumentation.
	Metrics *metrics.Registry
}

// Server hosts named channels for remote producers and consumers.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu       sync.Mutex
	channels map[string]*hosted
	conns    map[net.Conn]struct{}
	nextConn graph.ConnID
	closed   bool
	wg       sync.WaitGroup
}

// hosted is one channel plus its ARU state.
type hosted struct {
	ch  *channel.Channel
	vec *core.BackwardVec

	// mDedup counts retried puts answered from the dedup state instead
	// of re-inserting (nil when metrics are disabled).
	mDedup *metrics.Counter

	// lastPut remembers, per producer token, the timestamp of the last
	// applied put. The wire protocol is a strict request/response
	// alternation, so at most one put per producer can ever be in doubt
	// after a lost response — remembering just the latest (token, ts)
	// pair makes retried puts idempotent with O(producers) state.
	//
	// tokens refcounts the sessions attached under each producer token,
	// so lastPut is pruned when the last session for a token detaches —
	// without a reconnecting producer's fresh session racing the old
	// session's deferred detach into deleting live dedup state. Even if
	// an entry is pruned early the protocol stays correct: a retried put
	// that misses the dedup map falls back to the channel's own
	// ErrDuplicate detection.
	mu      sync.Mutex
	lastPut map[uint64]vt.Timestamp
	tokens  map[uint64]int
}

// retainToken registers one session attached under token.
func (h *hosted) retainToken(token uint64) {
	if token == 0 {
		return
	}
	h.mu.Lock()
	h.tokens[token]++
	h.mu.Unlock()
}

// releaseToken drops one session's claim on token, pruning the dedup
// state once no session remains: without it lastPut grows by one entry
// per producer ever attached, forever.
func (h *hosted) releaseToken(token uint64) {
	if token == 0 {
		return
	}
	h.mu.Lock()
	if h.tokens[token]--; h.tokens[token] <= 0 {
		delete(h.tokens, token)
		delete(h.lastPut, token)
	}
	h.mu.Unlock()
}

// dedupEntries reports the size of the lastPut map (tests pin that
// attach→put→detach cycles leave it empty).
func (h *hosted) dedupEntries() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.lastPut)
}

// alreadyApplied reports whether a put of ts from token was the last one
// applied — i.e. this request is a retry of a put whose response was
// lost.
func (h *hosted) alreadyApplied(token uint64, ts vt.Timestamp) bool {
	if token == 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	last, ok := h.lastPut[token]
	return ok && last == ts
}

// recordPut remembers the last applied put for token.
func (h *hosted) recordPut(token uint64, ts vt.Timestamp) {
	if token == 0 {
		return
	}
	h.mu.Lock()
	h.lastPut[token] = ts
	h.mu.Unlock()
}

// summary returns the channel's summary-STP: buffers have no current-STP,
// so it is the compressed backwardSTP (§3.3.2).
func (h *hosted) summary(comp core.Compressor) core.STP {
	return h.vec.Compressed(comp)
}

// NewServer starts a server hosting the named channels.
func NewServer(cfg ServerConfig, channelNames ...string) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.Collector == nil {
		cfg.Collector = gc.NewDeadTimestamp()
	}
	if cfg.Compressor == nil {
		cfg.Compressor = core.Min
	}
	if len(channelNames) == 0 {
		return nil, errors.New("remote: server needs at least one channel")
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("remote: listen: %w", err)
		}
	}
	s := &Server{cfg: cfg, ln: ln, channels: make(map[string]*hosted), conns: make(map[net.Conn]struct{})}
	for i, name := range channelNames {
		if _, dup := s.channels[name]; dup {
			ln.Close()
			return nil, fmt.Errorf("remote: duplicate channel %q", name)
		}
		h := &hosted{
			ch: channel.New(channel.Config{
				Name: name, Node: graph.NodeID(i),
				Clock: cfg.Clock, Collector: cfg.Collector,
			}),
			vec:     core.NewBackwardVec(nil, nil),
			lastPut: make(map[uint64]vt.Timestamp),
			tokens:  make(map[uint64]int),
		}
		if cfg.Metrics != nil {
			h.mDedup = cfg.Metrics.Counter(MetricDedupHits,
				"Retried puts answered from the server's dedup state.",
				metrics.Labels{"channel": name})
		}
		s.channels[name] = h
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes every hosted channel, releasing
// blocked remote gets.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, h := range s.channels {
		h.ch.Close()
	}
	// Sever client wires so serve loops blocked reading a frame return.
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
	return err
}

// track registers a client connection for shutdown; it reports false when
// the server is already closing.
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[nc] = struct{}{}
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, nc)
}

// Channel exposes a hosted channel for local (in-process) interaction and
// tests.
func (s *Server) Channel(name string) *channel.Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.channels[name]; ok {
		return h.ch
	}
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// session is the per-TCP-connection attachment state.
type session struct {
	hosted   *hosted
	connID   graph.ConnID
	producer bool
	consumer bool
	token    uint64 // producer dedup token (0: none)
}

func (s *Server) serve(nc net.Conn) {
	defer nc.Close()
	if !s.track(nc) {
		return
	}
	defer s.untrack(nc)
	w := newWire(nc)
	var sess session
	defer s.detach(&sess)

	for {
		var req Request
		if err := w.readRequest(&req); err != nil {
			return // client went away, or sent a malformed frame
		}
		resp := s.handle(&sess, &req)
		if err := w.writeResponse(&resp); err != nil {
			return
		}
	}
}

// detach releases a session's attachment, pruning the per-token dedup
// state once the last session holding the token is gone.
func (s *Server) detach(sess *session) {
	if sess.hosted == nil {
		return
	}
	if sess.consumer {
		sess.hosted.ch.DetachConsumer(sess.connID)
		sess.hosted.vec.RemoveSlot(sess.connID)
	}
	if sess.producer {
		sess.hosted.releaseToken(sess.token)
		sess.token = 0
	}
	sess.hosted = nil
}

func (s *Server) allocConn() graph.ConnID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextConn++
	return s.nextConn
}

func (s *Server) lookup(name string) (*hosted, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.channels[name]
	return h, ok
}

func (s *Server) handle(sess *session, req *Request) Response {
	switch req.Op {
	case OpAttachProducer, OpAttachConsumer:
		if sess.hosted != nil {
			return Response{Err: "remote: connection already attached"}
		}
		h, ok := s.lookup(req.Channel)
		if !ok {
			return Response{Err: fmt.Sprintf("remote: unknown channel %q", req.Channel)}
		}
		sess.hosted = h
		sess.connID = s.allocConn()
		if req.Op == OpAttachProducer {
			sess.producer = true
			sess.token = req.Token
			h.retainToken(req.Token)
			h.ch.AttachProducer(sess.connID)
		} else {
			sess.consumer = true
			w := req.Window
			if w < 1 {
				w = 1
			}
			if err := h.ch.AttachConsumer(sess.connID, w); err != nil {
				sess.hosted = nil
				sess.consumer = false
				return Response{Err: errText(err)}
			}
			h.vec.AddSlot(sess.connID, nil)
		}
		return Response{OK: true}

	case OpPut:
		if sess.hosted == nil || !sess.producer {
			return Response{Err: "remote: put on a non-producer connection"}
		}
		// Idempotent retry: if this (token, ts) pair is the last put this
		// producer applied, its original response was lost on the wire —
		// acknowledge again without inserting a duplicate.
		if req.Retry && sess.hosted.alreadyApplied(req.Token, req.TS) {
			sess.hosted.mDedup.Inc()
			return Response{OK: true, SummarySTP: sess.hosted.summary(s.cfg.Compressor)}
		}
		if len(req.Payload) > maxPayload {
			// Stored, it could never ride back out in a get reply.
			return Response{Err: fmt.Sprintf("remote: payload of %d bytes exceeds %d", len(req.Payload), maxPayload)}
		}
		size := req.Size
		if size == 0 {
			size = int64(len(req.Payload))
		}
		_, err := sess.hosted.ch.Put(sess.connID, &channel.Item{
			TS: req.TS, Payload: req.Payload, Size: size,
		})
		if err != nil {
			// A retried put colliding with its own earlier insert is a
			// success for token-less producers too: the item is there.
			if req.Retry && errors.Is(err, channel.ErrDuplicate) {
				sess.hosted.mDedup.Inc()
				return Response{OK: true, SummarySTP: sess.hosted.summary(s.cfg.Compressor)}
			}
			return Response{Err: errText(err)}
		}
		sess.hosted.recordPut(req.Token, req.TS)
		// Piggyback the channel's summary-STP back to the producer.
		return Response{OK: true, SummarySTP: sess.hosted.summary(s.cfg.Compressor)}

	case OpGetLatest, OpTryGetLatest:
		if sess.hosted == nil || !sess.consumer {
			return Response{Err: "remote: get on a non-consumer connection"}
		}
		// Piggyback the consumer's summary-STP into the channel's vector.
		if req.SummarySTP.Known() {
			sess.hosted.vec.Update(sess.connID, req.SummarySTP)
		}
		var res channel.GetResult
		var err error
		if req.Op == OpGetLatest {
			res, err = sess.hosted.ch.Get(sess.connID)
		} else {
			var ok bool
			res, ok, err = sess.hosted.ch.TryGet(sess.connID)
			if err == nil && !ok {
				return Response{OK: false}
			}
		}
		if err != nil {
			return Response{Err: errText(err)}
		}
		resp := Response{OK: true, TS: res.Item.TS, Size: res.Item.Size}
		if b, ok := res.Item.Payload.([]byte); ok {
			resp.Payload = b
		}
		if len(res.Skipped) > 0 {
			resp.SkippedTS = make([]vt.Timestamp, len(res.Skipped))
			for i, sk := range res.Skipped {
				resp.SkippedTS[i] = sk.TS
			}
		}
		return resp

	case OpStats:
		h, ok := s.lookup(req.Channel)
		if !ok {
			return Response{Err: fmt.Sprintf("remote: unknown channel %q", req.Channel)}
		}
		st := h.ch.Stats()
		return Response{OK: true, Items: st.Items, Bytes: st.Bytes}

	case OpDetach:
		s.detach(sess)
		return Response{OK: true}

	default:
		return Response{Err: fmt.Sprintf("remote: unknown op %d", req.Op)}
	}
}

// errText maps channel errors onto wire strings.
func errText(err error) string {
	if errors.Is(err, channel.ErrClosed) {
		return ErrClosedText
	}
	return err.Error()
}
