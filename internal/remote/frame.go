package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/core"
	"repro/internal/vt"
)

// Frame codec limits. They are constants, not options: a peer that
// exceeds one is broken or hostile, and the connection is dropped.
const (
	// frameVersion is the version byte every frame carries.
	frameVersion = 1
	// maxFrame bounds a frame body (everything after the length prefix).
	maxFrame = 64 << 20
	// maxPayload bounds a put's payload. It leaves replyReserve of the
	// frame for the header of the get reply that later carries the same
	// payload back out, so an accepted put can always be delivered.
	maxPayload   = maxFrame - replyReserve
	replyReserve = 1 << 20
	// maxName bounds a channel name or error string.
	maxName = 1 << 10
	// inlinePayload is the largest payload appended to the header and
	// sent with one Write; larger ones go out as a two-element writev.
	inlinePayload = 8 << 10
	// allocChunk caps how far a payload buffer grows ahead of the bytes
	// that actually arrived, so a header declaring a huge payload and
	// then stalling cannot force the full allocation up front.
	allocChunk = 1 << 20
	// readBuffer sizes each connection's bufio.Reader.
	readBuffer = 16 << 10
)

// Op/flags byte layout: a request carries its Op in the low seven bits
// and Retry in the top bit; a response carries OK in bit 0 and nothing
// else.
const (
	flagRetry    = 0x80
	flagOK       = 0x01
	respReserved = 0xfe
)

// errFrame tags a frame that violates the codec: a bad version byte, a
// length beyond a limit or past the frame's end, a non-canonical varint.
var errFrame = errors.New("remote: malformed frame")

// errFrameTooLarge reports a message the encoder refuses to send. It is
// not a wire failure: nothing was written, and a retry cannot help.
var errFrameTooLarge = errors.New("remote: message exceeds the frame limits")

// wire is one framed end of a connection: a buffered reader, and a
// header buffer and write vector reused by every frame sent. Like the
// request/response alternation it carries, it is not safe for
// concurrent use.
type wire struct {
	nc     net.Conn
	br     *bufio.Reader
	remain int   // body bytes of the frame being read not yet consumed
	err    error // the frame being read's first failure
	hdr    []byte
	vec    [2][]byte
	bufs   net.Buffers
}

func newWire(nc net.Conn) *wire {
	return &wire{nc: nc, br: bufio.NewReaderSize(nc, readBuffer), hdr: make([]byte, 0, 64)}
}

// appendRequest appends req's frame, less its payload, to b; the length
// prefix already counts the payload.
func appendRequest(b []byte, req *Request) []byte {
	b = append(b, 0, 0, 0, 0, frameVersion, byte(req.Op&^flagRetry))
	if req.Retry {
		b[5] |= flagRetry
	}
	b = binary.AppendVarint(b, int64(req.TS))
	b = binary.AppendVarint(b, req.Size)
	b = binary.AppendVarint(b, int64(req.SummarySTP))
	b = binary.AppendVarint(b, int64(req.Window))
	b = binary.AppendUvarint(b, req.Token)
	b = appendString(b, req.Channel)
	return putLength(b, len(req.Payload))
}

// appendResponse is appendRequest's counterpart for replies.
func appendResponse(b []byte, resp *Response) []byte {
	b = append(b, 0, 0, 0, 0, frameVersion, 0)
	if resp.OK {
		b[5] = flagOK
	}
	b = binary.AppendVarint(b, int64(resp.TS))
	b = binary.AppendVarint(b, resp.Size)
	b = binary.AppendVarint(b, int64(resp.SummarySTP))
	b = binary.AppendVarint(b, int64(resp.Items))
	b = binary.AppendVarint(b, resp.Bytes)
	b = appendString(b, resp.Err)
	b = binary.AppendUvarint(b, uint64(len(resp.SkippedTS)))
	for _, ts := range resp.SkippedTS {
		b = binary.AppendVarint(b, int64(ts))
	}
	return putLength(b, len(resp.Payload))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// putLength fills in the u32 length prefix of the frame header in b.
func putLength(b []byte, payload int) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4+payload))
	return b
}

// writeRequest sends one request frame.
func (w *wire) writeRequest(req *Request) error {
	if len(req.Channel) > maxName {
		return fmt.Errorf("%w: channel name of %d bytes", errFrameTooLarge, len(req.Channel))
	}
	if len(req.Payload) > maxPayload {
		return fmt.Errorf("%w: payload of %d bytes", errFrameTooLarge, len(req.Payload))
	}
	w.hdr = appendRequest(w.hdr[:0], req)
	return w.send(req.Payload)
}

// writeResponse sends one response frame. An error string or a skipped
// list too long for the frame is cut short rather than refused: both
// report on an item the server has already handed over. The skipped
// list keeps its newest entries; it only overflows when more than
// replyReserve/MaxVarintLen64 timestamps ride with a maximal payload.
func (w *wire) writeResponse(resp *Response) error {
	if len(resp.Err) > maxName {
		resp.Err = resp.Err[:maxName]
	}
	w.hdr = appendResponse(w.hdr[:0], resp)
	if over := len(w.hdr) - 4 + len(resp.Payload) - maxFrame; over > 0 && len(resp.SkippedTS) > 0 {
		// Every entry takes at least one byte: dropping over of them
		// frees at least over bytes.
		resp.SkippedTS = resp.SkippedTS[min(over, len(resp.SkippedTS)):]
		w.hdr = appendResponse(w.hdr[:0], resp)
	}
	return w.send(resp.Payload)
}

// send writes the header in w.hdr followed by payload: one Write for a
// small payload, a writev of header and payload for a large one, so a
// large payload is never copied. The small case is for connections that
// are not a bare *net.TCPConn (fault injectors, counting wrappers):
// net.Buffers degrades to one Write per element there, and a second
// Write costs more than copying 8 KiB.
func (w *wire) send(payload []byte) error {
	if body := len(w.hdr) - 4 + len(payload); body > maxFrame {
		return fmt.Errorf("%w: body of %d bytes", errFrameTooLarge, body)
	}
	if len(payload) <= inlinePayload {
		w.hdr = append(w.hdr, payload...)
		_, err := w.nc.Write(w.hdr)
		return err
	}
	w.vec = [2][]byte{w.hdr, payload}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(w.nc)
	w.vec = [2][]byte{} // drop the payload reference
	return err
}

// readRequest reads one request frame into req.
func (w *wire) readRequest(req *Request) error {
	flags := w.begin()
	ts, size, stp, window := w.varint(), w.varint(), w.varint(), w.varint()
	token := w.uvarint()
	name := w.str()
	payload := w.payload()
	if w.err != nil {
		return w.err
	}
	*req = Request{
		Op: Op(flags &^ flagRetry), Retry: flags&flagRetry != 0,
		Channel: name, TS: vt.Timestamp(ts), Payload: payload, Size: size,
		SummarySTP: core.STP(stp), Window: int(window), Token: token,
	}
	return nil
}

// readResponse reads one response frame into resp.
func (w *wire) readResponse(resp *Response) error {
	flags := w.begin()
	if w.err == nil && flags&respReserved != 0 {
		w.fail("reserved response flags %#x", flags)
	}
	ts, size, stp, items, bytes := w.varint(), w.varint(), w.varint(), w.varint(), w.varint()
	msg := w.str()
	var skipped []vt.Timestamp
	if n := w.count(); n > 0 {
		// An entry takes one wire byte but eight in memory, so a count
		// that fits the frame can still declare 512 MiB: preallocate
		// only what one read buffer could hold and let append follow the
		// bytes that actually arrive.
		skipped = make([]vt.Timestamp, 0, min(n, readBuffer))
		for i := 0; i < n && w.err == nil; i++ {
			skipped = append(skipped, vt.Timestamp(w.varint()))
		}
	}
	payload := w.payload()
	if w.err != nil {
		return w.err
	}
	*resp = Response{
		Err: msg, OK: flags&flagOK != 0,
		TS: vt.Timestamp(ts), Payload: payload, Size: size, SkippedTS: skipped,
		SummarySTP: core.STP(stp), Items: int(items), Bytes: bytes,
	}
	return nil
}

// The read steps below share one sticky error: once a step fails, w.err
// holds the cause, the later steps return zero values without reading,
// and the frame's caller reports w.err. The connection is unusable
// after any read error.

// fail records a codec violation.
func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: "+format, append([]any{errFrame}, args...)...)
	}
}

// setErr records a transport error, mapping io.EOF inside a frame to
// io.ErrUnexpectedEOF.
func (w *wire) setErr(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if w.err == nil {
		w.err = err
	}
}

// begin reads a frame's length prefix, version byte and op/flags byte.
// A clean close between frames is io.EOF; a close inside one is
// io.ErrUnexpectedEOF.
func (w *wire) begin() (flags byte) {
	w.err = nil
	p, err := w.br.Peek(4)
	if err != nil {
		if len(p) == 0 && err == io.EOF {
			w.err = io.EOF
		} else {
			w.setErr(err)
		}
		return 0
	}
	n := binary.LittleEndian.Uint32(p)
	w.br.Discard(4) // cannot fail: the bytes are buffered
	if n > maxFrame {
		w.fail("body of %d bytes exceeds %d", n, maxFrame)
		return 0
	}
	w.remain = int(n)
	if v := w.byte(); w.err == nil && v != frameVersion {
		w.fail("version %d, want %d", v, frameVersion)
	}
	return w.byte()
}

// byte consumes one body byte.
func (w *wire) byte() byte {
	if w.err != nil {
		return 0
	}
	if w.remain == 0 {
		w.fail("header runs past the frame end")
		return 0
	}
	w.remain--
	b, err := w.br.ReadByte()
	if err != nil {
		w.setErr(err)
	}
	return b
}

// uvarint consumes one canonical (shortest-form) uvarint, so a decoded
// frame re-encodes to exactly the bytes it came from.
func (w *wire) uvarint() uint64 {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64 && w.err == nil; i++ {
		b := w.byte()
		if b < 0x80 {
			switch {
			case i == binary.MaxVarintLen64-1 && b > 1:
				w.fail("varint overflows 64 bits")
			case i > 0 && b == 0:
				w.fail("non-canonical varint")
			}
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	w.fail("varint overflows 64 bits")
	return 0
}

// varint consumes one zig-zag varint.
func (w *wire) varint() int64 {
	ux := w.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// count consumes a declared length and checks it against the bytes left
// in the frame — every counted element takes at least one — before the
// caller allocates anything for it.
func (w *wire) count() int {
	n := w.uvarint()
	if w.err == nil && n > uint64(w.remain) {
		w.fail("declared length %d exceeds the %d bytes left", n, w.remain)
	}
	if w.err != nil {
		return 0
	}
	return int(n)
}

// str consumes a length-prefixed string of at most maxName bytes.
func (w *wire) str() string {
	n := w.count()
	if n == 0 {
		return ""
	}
	if n > maxName {
		w.fail("string of %d bytes exceeds %d", n, maxName)
		return ""
	}
	p, err := w.br.Peek(n) // n ≤ maxName < readBuffer
	if err != nil {
		w.setErr(err)
		return ""
	}
	s := string(p)
	w.br.Discard(n)
	w.remain -= n
	return s
}

// payload consumes the rest of the frame. The buffer grows a chunk at a
// time as bytes arrive, so a payload up to allocChunk is one allocation
// of its exact size. An empty payload is nil.
func (w *wire) payload() []byte {
	n := w.remain
	if w.err != nil || n == 0 {
		return nil
	}
	w.remain = 0
	var b []byte
	for len(b) < n {
		next := min(n-len(b), allocChunk)
		b = append(b, make([]byte, next)...)
		if _, err := io.ReadFull(w.br, b[len(b)-next:]); err != nil {
			w.setErr(err)
			return nil
		}
	}
	return b
}
