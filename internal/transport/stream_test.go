package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// withServer runs body against a server on a loopback port whose handler
// forwards every message to handled, with the handshake deadline shortened
// to timeout (0 keeps it). The server is closed, and the deadline restored,
// before withServer returns.
func withServer(t *testing.T, timeout time.Duration, body func(srv *Server, handled <-chan Message)) {
	t.Helper()
	if timeout > 0 {
		old := handshakeTimeout
		handshakeTimeout = timeout
		defer func() { handshakeTimeout = old }()
	}
	handled := make(chan Message, 64) // more than any test here sends
	srv, err := Listen("127.0.0.1:0", func(m Message) { handled <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body(srv, handled)
}

// rawDial connects to addr as a well-behaved peer would — preambles
// exchanged — and hands back the bare connection for the test to misuse.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := handshake(conn, true); err != nil {
		t.Fatal(err)
	}
	return conn
}

// expectClosed reads conn until the peer closes it (a reset counts: closing
// with our bytes unread makes the kernel answer RST, not FIN) and returns what
// the peer sent first. It fails if the peer has not closed within five seconds.
func expectClosed(t *testing.T, conn net.Conn, why string) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("%s: read %v; want the server to have closed the connection", why, err)
	}
	return got
}

// TestStreamFrameMustHoldOneMessage: bytes left in a frame after its message
// mean the peer's framing is off; the connection cannot continue.
func TestStreamFrameMustHoldOneMessage(t *testing.T) {
	for _, m := range []Message{
		PacketMessage(&pipeline.Packet{Seq: 1, Value: 1}),
		PacketMessage(&pipeline.Packet{Seq: 1, Value: []int{1, 2}}),
		ExceptionMessage(adapt.ExceptionOverload),
	} {
		one, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(one); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(append(bytes.Clone(one), one...)); err == nil {
			t.Fatalf("frame holding two of %+v decoded", m)
		}
		if _, err := Decode(append(bytes.Clone(one), 0x7)); err == nil {
			t.Fatalf("frame of %+v with a stray trailing byte decoded", m)
		}
	}
}

type unregistered struct{ X int }

// TestEncodeFailureLeavesClientUsable: frames are self-contained, so a
// message that cannot be encoded — an unregistered Value type, a frame beyond
// MaxFrameSize — costs its batch and nothing else: none of the batch reaches
// the wire, and the next Send on the same Client succeeds.
func TestEncodeFailureLeavesClientUsable(t *testing.T) {
	withServer(t, 0, func(srv *Server, handled <-chan Message) {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		next := uint64(0)
		good := func() Message { next++; return PacketMessage(&pipeline.Packet{Seq: next, Value: 1}) }
		if err := cli.Send(good()); err != nil {
			t.Fatal(err)
		}
		for name, bad := range map[string]Message{
			"unregistered": {Kind: KindPacket, Value: unregistered{1}},
			"oversized":    {Kind: KindPacket, Value: make([]byte, MaxFrameSize+1)},
		} {
			skipped := Message{Kind: KindPacket, Seq: 999, Value: 1}
			err := cli.SendBatch([]Message{skipped, bad, skipped})
			if err == nil {
				t.Fatalf("%s: batch with an unencodable message sent", name)
			}
			if name == "oversized" && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversized: %v, want ErrFrameTooLarge", err)
			}
			if err := cli.Send(good()); err != nil {
				t.Fatalf("%s: send after the failure: %v", name, err)
			}
		}
		for want := uint64(1); want <= next; want++ {
			select {
			case m := <-handled:
				if m.Seq != want {
					t.Fatalf("server handled seq %d, want %d: a failed batch leaked onto the wire", m.Seq, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("message %d never arrived", want)
			}
		}
		if st, sent := srv.Stats(), cli.Stats(); st.FramesIn != next || sent.FramesOut != next || st.BytesIn != sent.BytesOut {
			t.Fatalf("server read %+v, client counted %+v, want %d frames on both", st, sent, next)
		}
	})
}

// TestServerDropsPeerOnBadFrame: the first frame that does not decode ends
// the connection, and nothing behind it is delivered.
func TestServerDropsPeerOnBadFrame(t *testing.T) {
	good, err := Encode(PacketMessage(&pipeline.Packet{Seq: 5, Value: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"garbage":        []byte("not a frame"),
		"unknown kind":   {9},
		"unknown flags":  append([]byte{byte(KindPacket), 0x80}, good[2:]...),
		"unknown tag":    append(bytes.Clone(good[:len(good)-2]), 200),
		"count past end": append(bytes.Clone(good[:len(good)-2]), tagInts, 100, 1, 2),
		"empty":          {},
	} {
		withServer(t, 0, func(srv *Server, handled <-chan Message) {
			conn := rawDial(t, srv.Addr())
			defer conn.Close()
			if _, err := conn.Write(frameBytes(good, bad, good)); err != nil {
				t.Fatal(err)
			}
			if got := expectClosed(t, conn, name); len(got) != 0 {
				t.Fatalf("%s: server answered a bad frame with %q", name, got)
			}
			if m := <-handled; m.Seq != 5 {
				t.Fatalf("%s: first frame delivered as %+v", name, m)
			}
			select {
			case m := <-handled:
				t.Fatalf("%s: frame behind the bad one was delivered: %+v", name, m)
			default:
			}
		})
	}
}

// TestDialRejectsOtherWireVersion: a listener that answers with another
// version's preamble fails Dial at once, with an error naming both versions.
func TestDialRejectsOtherWireVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte{'G', 'T', 'S', 0xFF})
		io.Copy(io.Discard, conn) // until Dial gives up and closes
		conn.Close()
	}()
	start := time.Now()
	cli, err := Dial(ln.Addr().String())
	if err == nil {
		cli.Close()
		t.Fatal("Dial accepted a peer speaking wire version 255")
	}
	for _, want := range []string{"version 255", fmt.Sprintf("version %d", WireVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Dial error %q does not name %q", err, want)
		}
	}
	if took := time.Since(start); took > handshakeTimeout {
		t.Fatalf("Dial took %v to refuse, past the %v handshake deadline", took, handshakeTimeout)
	}
}

// TestServerRefusesBadHandshake: a client that opens with something other
// than the preamble, or with nothing at all, is closed — the silent one at
// the handshake deadline — before any frame is read, counted or handled.
func TestServerRefusesBadHandshake(t *testing.T) {
	frame := frameBytes([]byte{byte(KindException), 2})
	for name, hello := range map[string]string{
		"http":          "GET / HTTP/1.1\r\nHost: gates\r\n\r\n",
		"other version": "GTS\xff" + string(frame),
		"silent":        "",
	} {
		withServer(t, 200*time.Millisecond, func(srv *Server, handled <-chan Message) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, hello); err != nil {
				t.Fatal(err)
			}
			if got := expectClosed(t, conn, name); len(got) > 4 {
				t.Fatalf("%s: server sent %q, more than its preamble", name, got)
			}
			if st := srv.Stats(); st.FramesIn != 0 || st.BytesIn != 0 || len(handled) != 0 {
				t.Fatalf("%s: server counted %+v and handled %d messages from a peer it refused", name, st, len(handled))
			}
		})
	}
	withServer(t, 200*time.Millisecond, func(srv *Server, _ <-chan Message) {
		if _, err := Dial(srv.Addr()); err != nil { // and the deadline does not cost a prompt peer
			t.Fatal(err)
		}
	})
}

// TestHandshakeOverPipe: net.Pipe has no buffer, so a write completes only
// once the other end reads it. The handshake must still finish on both ends,
// well inside a shortened deadline, because the ends take turns; and a
// listener that refuses another wire version still tells the peer its own.
func TestHandshakeOverPipe(t *testing.T) {
	old := handshakeTimeout
	handshakeTimeout = time.Second
	defer func() { handshakeTimeout = old }()
	pipe := func() (dialer, listener net.Conn, served <-chan error) {
		dialer, listener = net.Pipe()
		t.Cleanup(func() { dialer.Close(); listener.Close() })
		done := make(chan error, 1)
		go func() { done <- handshake(listener, false) }()
		return dialer, listener, done
	}

	dialer, _, served := pipe()
	start := time.Now()
	if err := handshake(dialer, true); err != nil {
		t.Fatalf("dialer: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("listener: %v", err)
	}
	if took := time.Since(start); took >= handshakeTimeout {
		t.Fatalf("handshake took %v, not under the %v deadline", took, handshakeTimeout)
	}

	peer, _, served := pipe()
	if _, err := peer.Write([]byte{'G', 'T', 'S', 0xFF}); err != nil {
		t.Fatal(err)
	}
	var answer [4]byte
	if _, err := io.ReadFull(peer, answer[:]); err != nil {
		t.Fatalf("listener did not answer a version-255 peer: %v", err)
	}
	if err := checkPreamble(answer); err != nil {
		t.Fatalf("listener answered %q: %v", answer[:], err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "version 255") {
		t.Fatalf("listener accepted a version-255 peer: %v", err)
	}
}

// TestStalledPeerHoldsNoFrameBuffer: a length prefix is a claim, not bytes.
// A peer that announces a 16 MB frame, sends ten bytes and stalls must cost
// the server a read buffer, not 16 MB, and must not keep Close from returning.
func TestStalledPeerHoldsNoFrameBuffer(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn := rawDial(t, srv.Addr())
	defer conn.Close()
	claim := binary.BigEndian.AppendUint32(nil, MaxFrameSize)
	if _, err := conn.Write(append(claim, "ten bytes."...)); err != nil {
		t.Fatal(err)
	}
	// Written is not yet read; give the server's reader a moment to park
	// mid-frame. Too short a wait can only make the test pass, and
	// TestReadFrameGrowsWithArrivingBytes pins the bound without a socket.
	time.Sleep(100 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Fatalf("a stalled 16 MB claim grew the heap by %d bytes", grown)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close waits on the stalled peer")
	}
}

// TestReadFrameGrowsWithArrivingBytes: readFrameReuse sizes its buffer by the
// bytes that arrive, not by the length prefix's word — ten bytes of a claimed
// 16 MB allocate one read buffer's worth — and a frame of many read buffers
// still comes out whole.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	claim := append(binary.BigEndian.AppendUint32(nil, MaxFrameSize), "ten bytes."...)
	br := bufio.NewReaderSize(bytes.NewReader(claim), readBufSize)
	var scratch []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrameReuse(br, &scratch)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ten bytes of 16 MB read as %v", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4*readBufSize {
		t.Fatalf("ten bytes of a claimed 16 MB allocated %d bytes", grown)
	}

	big := make([]byte, 3<<20+17)
	for i := range big {
		big[i] = byte(i * 31)
	}
	got, err := readFrameReuse(bufio.NewReaderSize(bytes.NewReader(frameBytes(big)), readBufSize), &scratch)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("3 MB frame came back as %d bytes, err %v", len(got), err)
	}
	if cap(scratch) > len(big) {
		t.Fatalf("scratch grew to %d bytes for a %d-byte frame", cap(scratch), len(big))
	}
}

// FuzzStreamDecode feeds arbitrary bytes through the receive path of one
// connection — the preamble check, then readFrameReuse and the decoder,
// frame after frame until the first error. It must never panic, never hold
// more frame buffer than the bytes it was given (let alone MaxFrameSize), and
// every message it accepts must carry a valid Kind and survive re-encoding.
// The committed corpus holds a valid two-frame stream, a truncated frame, an
// oversized length prefix, a frame with trailing bytes, an unknown value tag,
// an []int whose count outruns the frame, and a bad preamble.
func FuzzStreamDecode(f *testing.F) {
	f.Add(streamBytes(
		Message{Kind: KindPacket, SourceStage: "src", Seq: 1, Value: []int{1, -2, 300}},
		ExceptionMessage(adapt.ExceptionUnderload)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || checkPreamble([4]byte(data)) != nil {
			return
		}
		br := bufio.NewReader(bytes.NewReader(data[4:]))
		var dec decoder
		var scratch []byte
		for {
			frame, err := readFrameReuse(br, &scratch)
			if cap(scratch) > len(data)+readBufSize {
				t.Fatalf("frame buffer grew to %d bytes over %d bytes of input", cap(scratch), len(data))
			}
			if err != nil {
				return
			}
			m, err := dec.decode(frame)
			if err != nil {
				return
			}
			if m.Kind != KindPacket && m.Kind != KindException {
				t.Fatalf("decode accepted kind %d", m.Kind)
			}
			if _, err := appendFrame(nil, m); err != nil { // not Encode: its sync.Pool makes coverage flaky
				t.Fatalf("decoded %+v, which does not encode: %v", m, err)
			}
		}
	})
}

// streamBytes is what a client puts on the wire for msgs: its preamble, then
// one frame each.
func streamBytes(msgs ...Message) []byte {
	out := []byte{'G', 'T', 'S', WireVersion}
	for _, m := range msgs {
		var err error
		if out, err = appendFrame(out, m); err != nil {
			panic(err)
		}
	}
	return out
}
