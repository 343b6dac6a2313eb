package remote

// Hostile-peer suite: raw sockets speak malformed frames to a live
// Server. Each must cost the server exactly that connection — healthy
// sessions keep serving, no goroutine outlives Server.Close, and a
// header declaring a huge payload does not buy an allocation of that
// size before the bytes arrive.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rand"
	"repro/internal/vt"
)

// dialHostile opens a bare TCP connection to the server.
func dialHostile(t *testing.T, addr string) *net.TCPConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return nc.(*net.TCPConn)
}

// expectDropped reads (and discards) until the server closes the
// connection; a read deadline expiring first means it kept it open.
func expectDropped(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.Copy(io.Discard, nc)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a hostile connection open")
	}
}

// attachRaw attaches nc as a producer of "frames" and reads the reply.
func attachRaw(t *testing.T, nc net.Conn) {
	t.Helper()
	if _, err := nc.Write(encodeRequest(&Request{Op: OpAttachProducer, Channel: "frames", Token: 5})); err != nil {
		t.Fatal(err)
	}
	var resp Response
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := newWire(nc).readResponse(&resp); err != nil || !resp.OK {
		t.Fatalf("raw attach: resp %+v, err %v", resp, err)
	}
}

// waitGoroutines polls until at most n goroutines remain.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running, want ≤ %d\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHostilePeers(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	var ts vt.Timestamp
	stillServing := func(t *testing.T) {
		t.Helper()
		ts++
		if _, err := prod.Put(ts, []byte("ok"), 0); err != nil {
			t.Fatalf("healthy put after a hostile peer: %v", err)
		}
		it, err := cons.GetLatest(core.Unknown)
		if err != nil || it.TS != ts {
			t.Fatalf("healthy get after a hostile peer: ts %d, err %v", it.TS, err)
		}
	}

	// Every hostile frame the server's decoder refuses, sent on a fresh
	// connection and followed by a half-close (so a truncated frame ends
	// in EOF); then garbage on a connection that attached first.
	type hostileCase struct {
		name   string
		attach bool
		send   []byte
	}
	var cases []hostileCase
	for _, h := range hostileFrames() {
		if readerOver(h.data).readRequest(&Request{}) != nil {
			cases = append(cases, hostileCase{h.name, false, h.data})
		}
	}
	cases = append(cases, hostileCase{"garbage after attach", true, randBytes(rand.New(1719), 4<<10)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := dialHostile(t, s.Addr())
			defer nc.Close()
			if tc.attach {
				attachRaw(t, nc)
			}
			if _, err := nc.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			nc.CloseWrite()
			expectDropped(t, nc)
			stillServing(t)
		})
	}

	prod.Close()
	cons.Close()
	s.Close()
	waitGoroutines(t, base)
}

// TestHostileStalledHugePayload declares a 60 MiB put, sends 1.5 MiB of
// it and stalls. The server must hold only what arrived (plus chunk
// slack), not the declared size, and must drop the connection once the
// peer goes away.
func TestHostileStalledHugePayload(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}, "frames")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nc := dialHostile(t, s.Addr())
	defer nc.Close()
	attachRaw(t, nc)

	const declared = 60 << 20
	hdr := appendRequest(nil, &Request{Op: OpPut, TS: 1, Token: 5})
	binary.LittleEndian.PutUint32(hdr, uint32(len(hdr)-4+declared))
	sent := make([]byte, allocChunk*3/2)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - alloc0
	}
	if _, err := nc.Write(append(hdr, sent...)); err != nil {
		t.Fatal(err)
	}
	// The server has read past its first chunk once it has allocated a
	// second one.
	deadline := time.Now().Add(5 * time.Second)
	for allocated() < 2*allocChunk {
		if time.Now().After(deadline) {
			t.Fatalf("server never read the payload (allocated %d bytes)", allocated())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := allocated(); got > 16<<20 {
		t.Fatalf("a stalled %d-byte frame cost %d bytes of allocation after %d arrived", declared, got, len(sent))
	}

	nc.CloseWrite()
	expectDropped(t, nc)
	s.Close()
	waitGoroutines(t, base)
}

// TestHostileServerResponse turns the tables: a malformed reply must
// surface at the client as a retryable wire failure, never a panic or a
// bogus response.
func TestHostileServerResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Only the frames a client's decoder refuses are hostile replies.
	var replies [][]byte
	for _, h := range hostileFrames() {
		if readerOver(h.data).readResponse(&Response{}) != nil {
			replies = append(replies, h.data)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, reply := range replies {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			newWire(nc).readRequest(&Request{}) // consume the request
			nc.Write(reply)
			nc.Close()
		}
	}()
	for i := range replies {
		c := dialRaw(t, ln.Addr().String())
		_, err := c.call(&Request{Op: OpAttachConsumer, Channel: "frames"}, time.Second)
		c.close()
		if !isWire(err) {
			t.Fatalf("hostile reply %d: err = %v, want a wire failure", i, err)
		}
	}
	<-done
}
