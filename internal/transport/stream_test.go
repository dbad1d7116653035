package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/builtin"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/workload"
)

// across carries m over one stream without a socket — appendFrame, the
// framed bytes through readFrameReuse, decode — and returns what arrived
// with the frame's payload size.
func across(t *testing.T, enc *streamEncoder, dec *streamDecoder, m Message) (Message, int) {
	t.Helper()
	n, err := enc.appendFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := enc.flush(&wire); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	frame, err := readFrameReuse(bufio.NewReader(&wire), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != n || wire.Len() != 0 {
		t.Fatalf("appendFrame reported %d payload bytes, wire carried %d (+%d stray)", n, len(frame), wire.Len())
	}
	got, err := dec.decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	return got, n
}

// TestStreamSendsDescriptorsOnce is the point of the per-connection codec:
// the first frame of each Value type carries its gob type descriptors, every
// later one only the data, and all of them decode on the one decoder.
func TestStreamSendsDescriptorsOnce(t *testing.T) {
	builtin.RegisterWireTypes()
	ints := Message{Kind: KindPacket, SourceStage: "src", Seq: 7, WireSize: 1024, Value: []int{3, 1, 4, 1, 5}}
	sum := Message{Kind: KindPacket, Seq: 8, Value: &countsamps.Summary{
		SourceInstance: 2, Span: 99, Entries: []workload.ValueCount{{Value: 5, Count: 11}},
	}}
	exc := ExceptionMessage(adapt.ExceptionOverload)

	oneShot, err := Encode(ints)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := newStreamEncoder(), newStreamDecoder()
	for i, m := range []Message{ints, sum, exc} {
		first, n1 := across(t, enc, dec, m)
		again, n2 := across(t, enc, dec, m)
		if !reflect.DeepEqual(first, m) || !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip mangled %+v: first %+v, again %+v", m, first, again)
		}
		if m.Kind == KindPacket && n2 >= n1 {
			t.Errorf("repeat frame is %d bytes, first was %d: descriptors were re-sent", n2, n1)
		}
		if i == 0 && n1 != len(oneShot) {
			t.Errorf("Encode yields %d bytes, a fresh stream's first frame %d: not the same path", len(oneShot), n1)
		}
	}
}

// TestStreamBuiltinTypesUnderCap streams every payload type the built-in
// applications register over one connection's decoder: honest traffic must
// stay far below the type-definition cap. (gob ships an interface value's
// concrete type inside the value message, so what the cap sees from an
// honest peer is the Message envelope's own definitions.)
func TestStreamBuiltinTypesUnderCap(t *testing.T) {
	builtin.RegisterWireTypes()
	enc, dec := newStreamEncoder(), newStreamDecoder()
	for _, v := range builtin.WireTypes() {
		across(t, enc, dec, Message{Kind: KindPacket, Value: v})
	}
	if dec.typeDefs == 0 || dec.typeDefs > maxTypeDefs/8 {
		t.Fatalf("built-in payload types cost %d type definitions, cap is %d", dec.typeDefs, maxTypeDefs)
	}
}

// TestStreamTypeDefinitionCap plays a peer that defines a new type ahead of
// every message: the decoder must serve it up to maxTypeDefs definitions
// and refuse the frame that goes past.
func TestStreamTypeDefinitionCap(t *testing.T) {
	enc, dec := newStreamEncoder(), newStreamDecoder()
	msg := PacketMessage(&pipeline.Packet{Seq: 1, Value: 1})
	across(t, enc, dec, msg) // the envelope's own definitions
	intType := reflect.TypeOf(0)
	for n := 1; ; n++ {
		// A bare gob encoder opens with the definition of the value's type,
		// as a top-level message of its own.
		var raw bytes.Buffer
		if err := gob.NewEncoder(&raw).Encode(reflect.New(reflect.ArrayOf(n, intType)).Elem().Interface()); err != nil {
			t.Fatal(err)
		}
		size, w := gobUint(raw.Bytes())
		if _, err := enc.appendFrame(msg); err != nil {
			t.Fatal(err)
		}
		frame := append(raw.Bytes()[:w+int(size)], enc.buf.Bytes()[4:]...)
		enc.buf.Reset()
		before := dec.typeDefs
		_, err := dec.decode(frame)
		switch {
		case before < maxTypeDefs && err != nil:
			t.Fatalf("definition %d of %d refused: %v", before+1, maxTypeDefs, err)
		case before < maxTypeDefs:
		case !errors.Is(err, errTypeDefCap):
			t.Fatalf("definition %d accepted past the cap of %d (err %v)", before+1, maxTypeDefs, err)
		default:
			return
		}
	}
}

// TestStreamFrameMustHoldOneMessage: bytes left in a frame after its message
// mean the peer's framing is off; the stream cannot continue.
func TestStreamFrameMustHoldOneMessage(t *testing.T) {
	enc := newStreamEncoder()
	m := PacketMessage(&pipeline.Packet{Seq: 1, Value: 1})
	enc.appendFrame(m)
	enc.appendFrame(m)
	b := enc.buf.Bytes()
	first := 4 + int(binary.BigEndian.Uint32(b))
	two := append(bytes.Clone(b[4:first]), b[first+4:]...)
	if _, err := newStreamDecoder().decode(two); err == nil {
		t.Fatal("frame holding two messages decoded")
	}
	if _, err := newStreamDecoder().decode(append(bytes.Clone(b[4:first]), 0x7)); err == nil {
		t.Fatal("frame with a stray trailing byte decoded")
	}
}

type unregistered struct{ X int }

// TestEncodeFailureBreaksClient: a message gob cannot encode leaves the
// connection's encoder out of step with what the peer has seen, so the
// failing call must send nothing and every later send must fail — the peer
// sees a clean end of stream, never a corrupt one.
func TestEncodeFailureBreaksClient(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good := PacketMessage(&pipeline.Packet{Seq: 1, Value: 1})

	for name, bad := range map[string]Message{
		"unregistered": {Kind: KindPacket, Value: unregistered{1}},
		"oversized":    {Kind: KindPacket, Value: make([]byte, MaxFrameSize+1)},
	} {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(good); err != nil {
			t.Fatal(err)
		}
		err = cli.SendBatch([]Message{good, bad, good})
		if err == nil {
			t.Fatalf("%s: batch with an unencodable message sent", name)
		}
		if name == "oversized" && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversized: %v, want ErrFrameTooLarge", err)
		}
		if err2 := cli.Send(good); !errors.Is(err2, err) {
			t.Fatalf("%s: send after the failure = %v, want it to fail citing %v", name, err2, err)
		}
		cli.Close()
	}
	// Both connections read to their end: everything sent has been handled.
	deadline := time.Now().Add(5 * time.Second)
	for open := 1; open > 0; {
		if time.Now().After(deadline) {
			t.Fatal("server never finished the closed connections")
		}
		time.Sleep(time.Millisecond)
		srv.mu.Lock()
		open = len(srv.conns)
		srv.mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("server handled %d messages, want the 2 sent before the failures", len(got))
	}
	if fr := srv.Stats().FramesIn; fr != 2 {
		t.Fatalf("server read %d frames, want 2: a failed batch leaked bytes onto the wire", fr)
	}
}

// TestServerDropsPeerOnBadFrame: the first frame that does not decode ends
// the connection, and nothing behind it is delivered.
func TestServerDropsPeerOnBadFrame(t *testing.T) {
	handled := make(chan Message, 4)
	srv, err := Listen("127.0.0.1:0", func(m Message) { handled <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good, err := Encode(PacketMessage(&pipeline.Packet{Seq: 5, Value: 1}))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameBytes(good, []byte("not gob"), good)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a bad frame = %v, want the server to have closed the connection", err)
	}
	if m := <-handled; m.Seq != 5 {
		t.Fatalf("first frame delivered as %+v", m)
	}
	select {
	case m := <-handled:
		t.Fatalf("frame behind the bad one was delivered: %+v", m)
	default:
	}
}

// FuzzStreamDecode feeds arbitrary bytes through the receive path of one
// connection — readFrameReuse, then the connection's decoder, frame after
// frame until the first error. It must never panic, never hold more than
// MaxFrameSize of frame buffer, and every message it accepts must carry a
// valid Kind. The committed corpus holds a valid two-frame stream, a
// truncated frame, an oversized length prefix and a frame with trailing
// bytes.
func FuzzStreamDecode(f *testing.F) {
	builtin.RegisterWireTypes()
	enc := newStreamEncoder()
	enc.appendFrame(Message{Kind: KindPacket, SourceStage: "src", Seq: 1, Value: []int{1, 2, 3}})
	enc.appendFrame(ExceptionMessage(adapt.ExceptionUnderload))
	f.Add(bytes.Clone(enc.buf.Bytes())) // a stream valid under this build's gob, whatever the corpus was cut with
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		dec := newStreamDecoder()
		var scratch []byte
		for {
			frame, err := readFrameReuse(br, &scratch)
			if cap(scratch) > MaxFrameSize {
				t.Fatalf("frame buffer grew to %d bytes", cap(scratch))
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
		}
	})
}
