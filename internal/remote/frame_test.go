package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rand"
	"repro/internal/vt"
)

// encodeRequest and encodeResponse render one whole frame, payload
// included, as the writer puts it on the socket.
func encodeRequest(req *Request) []byte {
	return append(appendRequest(nil, req), req.Payload...)
}

func encodeResponse(resp *Response) []byte {
	return append(appendResponse(nil, resp), resp.Payload...)
}

// readerOver is a read-only wire over an in-memory byte stream.
func readerOver(data []byte) *wire {
	return &wire{br: bufio.NewReaderSize(bytes.NewReader(data), readBuffer)}
}

// isFrameErr reports whether err is one a decoder may return: a typed
// codec violation or a stream that ended.
func isFrameErr(err error) bool {
	return errors.Is(err, errFrame) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// randRequest and randResponse draw messages that reach every corner of
// the codec: nil and empty payloads, negative and Unknown STP, tokens at
// the top of the range, long skip lists and names at the length limit.
func randInt64(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -r.Int63n(1 << 40)
	case 2:
		return int64(r.Uint64()) // full range, either sign
	default:
		return r.Int63n(1 << 20)
	}
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func randPayload(r *rand.Rand) []byte {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return randBytes(r, inlinePayload+1+r.Intn(inlinePayload))
	default:
		return randBytes(r, r.Intn(300))
	}
}

func randString(r *rand.Rand) string {
	if r.Intn(3) == 0 {
		return ""
	}
	n := r.Intn(40)
	if r.Intn(8) == 0 {
		n = maxName
	}
	return string(randBytes(r, n))
}

func randRequest(r *rand.Rand) Request {
	stp := core.STP(randInt64(r))
	if r.Intn(3) == 0 {
		stp = core.Unknown
	}
	return Request{
		Op: Op(r.Intn(128)), Channel: randString(r), TS: vt.Timestamp(randInt64(r)),
		Payload: randPayload(r), Size: randInt64(r), SummarySTP: stp,
		Window: int(randInt64(r)), Token: []uint64{0, 1, math.MaxUint64, r.Uint64()}[r.Intn(4)],
		Retry: r.Intn(2) == 0,
	}
}

func randResponse(r *rand.Rand) Response {
	var skipped []vt.Timestamp
	if n := []int{0, 1, 3, 5000}[r.Intn(4)]; n > 0 {
		skipped = make([]vt.Timestamp, n)
		for i := range skipped {
			skipped[i] = vt.Timestamp(randInt64(r))
		}
	}
	return Response{
		Err: randString(r), OK: r.Intn(2) == 0, TS: vt.Timestamp(randInt64(r)),
		Payload: randPayload(r), Size: randInt64(r), SkippedTS: skipped,
		SummarySTP: core.STP(randInt64(r)), Items: int(randInt64(r)), Bytes: randInt64(r),
	}
}

// TestFrameRoundTrip is the codec's round-trip property: every message
// decodes to itself, except that an empty payload arrives as nil (as it
// did under gob), and several frames back to back decode in order.
func TestFrameRoundTrip(t *testing.T) {
	r := rand.New(1719)
	for i := 0; i < 2000; i++ {
		req, resp := randRequest(r), randResponse(r)
		req2, resp2 := randRequest(r), randResponse(r)

		w := readerOver(append(encodeRequest(&req), encodeRequest(&req2)...))
		for _, want := range []Request{req, req2} {
			var got Request
			if err := w.readRequest(&got); err != nil {
				t.Fatalf("case %d: readRequest: %v", i, err)
			}
			if len(want.Payload) == 0 {
				want.Payload = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d: request round trip\n got %+v\nwant %+v", i, got, want)
			}
		}

		w = readerOver(append(encodeResponse(&resp), encodeResponse(&resp2)...))
		for _, want := range []Response{resp, resp2} {
			var got Response
			if err := w.readResponse(&got); err != nil {
				t.Fatalf("case %d: readResponse: %v", i, err)
			}
			if len(want.Payload) == 0 {
				want.Payload = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d: response round trip\n got %+v\nwant %+v", i, got, want)
			}
		}
		var end Request
		if err := w.readRequest(&end); err != io.EOF {
			t.Fatalf("case %d: read past the last frame = %v, want io.EOF", i, err)
		}
	}

	// nil and empty payloads are the same bytes on the wire.
	if !bytes.Equal(encodeRequest(&Request{Op: OpPut}), encodeRequest(&Request{Op: OpPut, Payload: []byte{}})) {
		t.Fatal("nil and empty payloads encode differently")
	}
}

// TestFrameRoundTripOverTCP sends payloads on both sides of the inline
// threshold and across two allocChunk steps through a live server, so
// the single-Write and writev send paths and the chunked read all run
// on a real socket.
func TestFrameRoundTripOverTCP(t *testing.T) {
	s := newTestServer(t, nil)
	prod, err := DialProducer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := DialConsumer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	r := rand.New(11)
	for i, n := range []int{0, 1, inlinePayload, inlinePayload + 1, 64 << 10, 2*allocChunk + 1} {
		payload := randBytes(r, n)
		ts := vt.Timestamp(i + 1)
		if _, err := prod.Put(ts, payload, 0); err != nil {
			t.Fatalf("put %d bytes: %v", n, err)
		}
		it, err := cons.GetLatest(core.Unknown)
		if err != nil {
			t.Fatalf("get %d bytes: %v", n, err)
		}
		if it.TS != ts || !bytes.Equal(it.Payload, payload) || it.Size != int64(n) {
			t.Fatalf("%d-byte item came back as ts %d, %d bytes, size %d", n, it.TS, len(it.Payload), it.Size)
		}
	}
}

// TestFrameEncoderRefusesOversize checks the sender's side of the
// limits: a payload beyond maxPayload or a name beyond maxName is
// refused before a byte is written, as a terminal (not a wire) error.
func TestFrameEncoderRefusesOversize(t *testing.T) {
	s := newTestServer(t, nil)
	c := dialRaw(t, s.Addr())
	defer c.close()
	_, err := c.call(&Request{Op: OpAttachProducer, Channel: string(make([]byte, maxName+1))}, 0)
	if !errors.Is(err, errFrameTooLarge) || isWire(err) {
		t.Fatalf("long channel name: err = %v, want a non-wire errFrameTooLarge", err)
	}
	if _, err := c.call(&Request{Op: OpAttachProducer, Channel: "frames"}, 0); err != nil {
		t.Fatalf("connection unusable after a refused send: %v", err)
	}
	_, err = c.call(&Request{Op: OpPut, TS: 1, Payload: make([]byte, maxPayload+1)}, 0)
	if !errors.Is(err, errFrameTooLarge) || isWire(err) {
		t.Fatalf("oversized payload: err = %v, want a non-wire errFrameTooLarge", err)
	}
}

// TestFrameMaximalPayloadRoundTrip stores the largest payload a put may
// carry behind three smaller items, so the get reply carries it back
// with a non-empty skipped list in one legal frame: an accepted put is
// always deliverable.
func TestFrameMaximalPayloadRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	prod, err := DialProducer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := DialConsumer(s.Addr(), "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	for ts := vt.Timestamp(1); ts <= 3; ts++ {
		if _, err := prod.Put(ts, []byte("small"), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Only the end bytes are marked, so the sender's copy can go once
	// sent: the test holds two 63 MiB payloads at a time, not three.
	payload := make([]byte, maxPayload)
	payload[0], payload[maxPayload-1] = 0xa5, 0x5a
	if _, err := prod.Put(4, payload, 0); err != nil {
		t.Fatalf("put of maxPayload bytes: %v", err)
	}
	payload = nil
	it, err := cons.GetLatest(core.Unknown)
	if err != nil {
		t.Fatalf("get of maxPayload bytes: %v", err)
	}
	got := it.Payload
	if it.TS != 4 || len(got) != maxPayload || got[0] != 0xa5 || got[maxPayload-1] != 0x5a || !reflect.DeepEqual(it.SkippedTS, []vt.Timestamp{1, 2, 3}) {
		t.Fatalf("got ts %d, %d bytes, skipped %v; want ts 4, %d marked bytes, skipped [1 2 3]", it.TS, len(got), it.SkippedTS, maxPayload)
	}
}

// TestServerRefusesOversizePut is the server's side of maxPayload: a
// raw peer bypassing the client's check gets the put refused, not stored.
func TestServerRefusesOversizePut(t *testing.T) {
	s := newTestServer(t, nil)
	var sess session
	if resp := s.handle(&sess, &Request{Op: OpAttachProducer, Channel: "frames"}); !resp.OK {
		t.Fatalf("attach: %+v", resp)
	}
	resp := s.handle(&sess, &Request{Op: OpPut, TS: 1, Payload: make([]byte, maxPayload+1)})
	if resp.OK || resp.Err == "" {
		t.Fatalf("oversize put answered %+v, want a refusal", resp)
	}
	if items := sess.hosted.ch.Stats().Items; items != 0 {
		t.Fatalf("refused put left %d items in the channel", items)
	}
	s.detach(&sess)
}

// countConn is a net.Conn that counts and discards what is written,
// keeping the first bytes.
type countConn struct {
	net.Conn
	n    int
	head []byte
}

func (c *countConn) Write(p []byte) (int, error) {
	if len(c.head) < 64 {
		c.head = append(c.head, p[:min(len(p), 64)]...)
	}
	c.n += len(p)
	return len(p), nil
}

// TestFrameReplyTrimsSkipsToFit: a maximal payload behind more skipped
// timestamps than replyReserve holds still goes out as one legal frame;
// the skipped list is cut short from the oldest end.
func TestFrameReplyTrimsSkipsToFit(t *testing.T) {
	skipped := make([]vt.Timestamp, replyReserve/4) // 4 wire bytes each
	for i := range skipped {
		skipped[i] = vt.Timestamp(1<<21 + i)
	}
	resp := Response{OK: true, TS: 1 << 22, Payload: make([]byte, maxPayload), Size: maxPayload, SkippedTS: skipped}
	c := &countConn{}
	if err := newWire(c).writeResponse(&resp); err != nil {
		t.Fatalf("writeResponse: %v", err)
	}
	if body := binary.LittleEndian.Uint32(c.head); int(body) != c.n-4 || body > maxFrame {
		t.Fatalf("frame declares %d body bytes, sent %d, limit %d", body, c.n-4, maxFrame)
	}
	if n := len(resp.SkippedTS); n == 0 || n == len(skipped) || resp.SkippedTS[n-1] != skipped[len(skipped)-1] {
		t.Fatalf("skipped list of %d kept %d, want a trimmed tail ending at %d", len(skipped), n, skipped[len(skipped)-1])
	}
}

// frameCorpus is one valid frame per request op and per reply shape,
// plus the hostile frames.
func frameCorpus() [][]byte {
	var corpus [][]byte
	for _, req := range []Request{
		{Op: OpAttachProducer, Channel: "frames", Token: 0x9e3779b97f4a7c15},
		{Op: OpAttachConsumer, Channel: "frames", Window: 4},
		{Op: OpPut, TS: 42, Payload: []byte("frame-42"), Size: 64, Token: 7},
		{Op: OpPut, TS: 43, Payload: []byte("again"), Token: 7, Retry: true},
		{Op: OpGetLatest, SummarySTP: 50_000_000},
		{Op: OpTryGetLatest, SummarySTP: core.Unknown},
		{Op: OpStats, Channel: "frames"},
		{Op: OpDetach},
	} {
		corpus = append(corpus, encodeRequest(&req))
	}
	for _, resp := range []Response{
		{OK: true},
		{OK: true, SummarySTP: 33_000_000},
		{OK: true, TS: 9, Payload: []byte("nine"), Size: 4, SkippedTS: []vt.Timestamp{7, 8}},
		{OK: false},
		{OK: true, Items: 3, Bytes: 192},
		{Err: ErrClosedText},
	} {
		corpus = append(corpus, encodeResponse(&resp))
	}
	for _, h := range hostileFrames() {
		corpus = append(corpus, h.data)
	}
	return corpus
}

// hostileFrame is a malformed input violating one codec rule.
type hostileFrame struct {
	name string
	data []byte
}

// hostileFrames feed the fuzz corpus, the decoder test, and the live
// hostile-peer suites on both ends of the wire.
func hostileFrames() []hostileFrame {
	attach := encodeRequest(&Request{Op: OpAttachProducer, Channel: "frames"})

	oversized := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	oversized = append(oversized, frameVersion, byte(OpPut))

	badVersion := append([]byte(nil), attach...)
	badVersion[4] = frameVersion + 1

	// A name length of 100 with three name bytes left in the frame.
	longName := []byte{0, 0, 0, 0, frameVersion, byte(OpAttachProducer), 0, 0, 0, 0, 0, 100, 'a', 'b', 'c'}
	putLength(longName, 0)

	// A reply declaring 1000 skipped timestamps with two bytes left.
	longSkip := []byte{0, 0, 0, 0, frameVersion, flagOK, 0, 0, 0, 0, 0, 0, 0xe8, 0x07, 2, 4}
	putLength(longSkip, 0)

	// A reply whose declared body could hold 60M skipped timestamps —
	// 480 MiB in memory — followed by none of them.
	hugeSkip := binary.LittleEndian.AppendUint32(nil, maxFrame)
	hugeSkip = append(hugeSkip, frameVersion, flagOK, 0, 0, 0, 0, 0, 0)
	hugeSkip = binary.AppendUvarint(hugeSkip, 60<<20)

	overlong := []byte{0, 0, 0, 0, frameVersion, byte(OpPut), 0x80, 0x00, 0, 0, 0, 0, 0}
	putLength(overlong, 0)

	return []hostileFrame{
		{"length above maximum", oversized},
		{"truncated frame", attach[:len(attach)/2]},
		{"wrong version", badVersion},
		{"name longer than frame", longName},
		{"skip count longer than frame", longSkip},
		{"skip count beyond memory", hugeSkip},
		{"non-canonical varint", overlong},
		{"garbage", randBytes(rand.New(3), 64)},
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to both decoders. Every input
// must either fail with a typed codec or stream error or decode to a
// message that re-encodes to exactly the frame's bytes — never panic.
// CI replays the seed corpus; `go test -fuzz FuzzDecodeFrame
// ./internal/remote` explores further.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range frameCorpus() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := readerOver(data).readRequest(&req); err != nil {
			if !isFrameErr(err) {
				t.Fatalf("readRequest: untyped error %v", err)
			}
		} else if enc := encodeRequest(&req); !bytes.HasPrefix(data, enc) {
			t.Fatalf("request %+v re-encodes to %x, input %x", req, enc, data)
		}

		var resp Response
		if err := readerOver(data).readResponse(&resp); err != nil {
			if !isFrameErr(err) {
				t.Fatalf("readResponse: untyped error %v", err)
			}
		} else if enc := encodeResponse(&resp); !bytes.HasPrefix(data, enc) {
			t.Fatalf("response %+v re-encodes to %x, input %x", resp, enc, data)
		}
	})
}

// TestFrameHostileDecode pins that each hostile frame is refused by the
// decoder that would read it, with a typed error, and that refusing all
// of them allocates next to nothing whatever sizes they declare.
func TestFrameHostileDecode(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	defer func() {
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - alloc0; got > 4<<20 {
			t.Errorf("decoding the hostile frames allocated %d bytes", got)
		}
	}()
	for _, h := range hostileFrames() {
		errReq := readerOver(h.data).readRequest(&Request{})
		errResp := readerOver(h.data).readResponse(&Response{})
		if errReq == nil && errResp == nil {
			t.Fatalf("%s: %x decoded both ways", h.name, h.data)
		}
		for _, err := range []error{errReq, errResp} {
			if err != nil && !isFrameErr(err) {
				t.Fatalf("%s: untyped error %v", h.name, err)
			}
		}
	}
}

// wrappedListener hands out connections that are not a bare
// *net.TCPConn, as fault injectors and byte counters do.
type wrappedListener struct{ net.Listener }

type wrappedConn struct{ net.Conn }

func (l wrappedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	return wrappedConn{nc}, err
}

// BenchmarkWireRoundTrip times one put plus one get of each payload
// size the wire-loopback workload mixes, through a live server on
// loopback, with the server's connections bare or wrapped. The inline
// send path is for the wrapped case (EXPERIMENTS.md, wire codec).
func BenchmarkWireRoundTrip(b *testing.B) {
	for _, wrap := range []bool{false, true} {
		for _, n := range []int{68, 4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("wrapped=%t/%dB", wrap, n), func(b *testing.B) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				if wrap {
					ln = wrappedListener{ln}
				}
				s, err := NewServer(ServerConfig{Listener: ln}, "frames")
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				prod, err := DialProducer(s.Addr(), "frames")
				if err != nil {
					b.Fatal(err)
				}
				defer prod.Close()
				cons, err := DialConsumer(s.Addr(), "frames")
				if err != nil {
					b.Fatal(err)
				}
				defer cons.Close()
				payload := make([]byte, n)
				b.SetBytes(int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prod.Put(vt.Timestamp(i+1), payload, 0); err != nil {
						b.Fatal(err)
					}
					if _, err := cons.GetLatest(core.Unknown); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
