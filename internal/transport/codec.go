package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// MessageKind discriminates wire messages.
type MessageKind uint8

const (
	// KindPacket carries a data (or Final) packet downstream.
	KindPacket MessageKind = iota + 1
	// KindException carries a load exception upstream — the control
	// plane of the self-adaptation algorithm.
	KindException
)

// Message is the unit framed onto a connection: either a packet or an
// exception. Packet Values must be gob-encodable (applications register
// concrete types with gob.Register).
type Message struct {
	Kind MessageKind

	// Packet fields (KindPacket).
	SourceStage    string
	SourceInstance int
	Seq            uint64
	Final          bool
	Items          int
	WireSize       int
	Value          any

	// Trace context (KindPacket): the packet lineage's virtual birth
	// time, its distributed trace id (0 = unsampled), and the node-hop
	// count — the compact context that lets a span tree follow a
	// sampled batch across machines.
	Birth     time.Time
	TraceID   uint64
	TraceHops uint8

	// Exception (KindException).
	Exception adapt.Exception
}

// PacketMessage wraps a pipeline packet for the wire.
func PacketMessage(p *pipeline.Packet) Message {
	return Message{
		Kind:           KindPacket,
		SourceStage:    p.SourceStage,
		SourceInstance: p.SourceInstance,
		Seq:            p.Seq,
		Final:          p.Final,
		Items:          p.Items,
		WireSize:       p.WireSize,
		Value:          p.Value,
		Birth:          p.Birth,
		TraceID:        p.TraceID,
		TraceHops:      p.TraceHops,
	}
}

// ExceptionMessage wraps a load exception for the wire.
func ExceptionMessage(e adapt.Exception) Message {
	return Message{Kind: KindException, Exception: e}
}

// PacketInto fills p (typically drawn from the pipeline packet pool) with
// the message's packet fields.
func (m Message) PacketInto(p *pipeline.Packet) {
	p.SourceStage = m.SourceStage
	p.SourceInstance = m.SourceInstance
	p.Seq = m.Seq
	p.Final = m.Final
	p.Items = m.Items
	p.WireSize = m.WireSize
	p.Value = m.Value
	p.Birth = m.Birth
	p.TraceID = m.TraceID
	p.TraceHops = m.TraceHops
}

// maxTypeDefs bounds the type-definition messages one peer may send on a
// connection: each grows the receiver's type table and compiled decode
// engines for the connection's life. An honest peer sends a handful — the
// Message envelope's; gob ships a Value's concrete type inside the value
// message, where this count does not see it.
const maxTypeDefs = 1024

// streamEncoder is the sending half of one connection's gob stream. The
// encoder lives as long as the connection, so type descriptors are sent
// once; every Encode still lands in its own length-prefixed frame. Frames
// accumulate in buf until flush. Not safe for concurrent use.
type streamEncoder struct {
	buf bytes.Buffer // frames appended since the last flush
	enc *gob.Encoder // writes into buf
	msg Message      // Encode gets a pointer to this: no per-call boxing
	err error        // first encode failure; the stream cannot continue
}

func newStreamEncoder() *streamEncoder {
	e := &streamEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// appendFrame appends one frame carrying m to the buffer — the 4-byte header
// is reserved up front and backfilled after encoding — and returns the
// payload size in bytes. A failure (an unregistered Value type, an oversized
// frame) may leave the encoder believing descriptors sent that never reach
// the peer, so it empties the buffer and breaks the stream for good.
func (e *streamEncoder) appendFrame(m Message) (int, error) {
	if e.err != nil {
		return 0, fmt.Errorf("transport: stream broken by an earlier encode failure: %w", e.err)
	}
	start := e.buf.Len()
	e.buf.Write([]byte{0, 0, 0, 0})
	e.msg = m
	err := e.enc.Encode(&e.msg)
	e.msg = Message{} // do not pin the payload until the next send
	n := e.buf.Len() - start - 4
	if err != nil {
		e.err = fmt.Errorf("transport: encode message: %w", err)
	} else if n > MaxFrameSize {
		e.err = fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if e.err != nil {
		e.buf.Reset()
		return 0, e.err
	}
	binary.BigEndian.PutUint32(e.buf.Bytes()[start:start+4], uint32(n))
	return n, nil
}

// flush writes every buffered frame to w in one Write.
func (e *streamEncoder) flush(w io.Writer) error {
	_, err := w.Write(e.buf.Bytes())
	e.buf.Reset()
	return err
}

// streamDecoder is the receiving half of one connection's gob stream: one
// decoder for the life of the connection, fed a frame at a time. A stateful
// stream cannot resync, so the caller drops the connection on any error.
type streamDecoder struct {
	r        bytes.Reader // re-pointed at each frame's payload
	dec      *gob.Decoder // reads from r (a ByteReader, so gob adds no buffering)
	msg      Message
	typeDefs int // type definitions received so far
}

func newStreamDecoder() *streamDecoder {
	d := &streamDecoder{}
	d.dec = gob.NewDecoder(&d.r)
	return d
}

// decode consumes one frame's payload, which must hold exactly one message
// (preceded by whatever type definitions it needs). The gob layer copies
// everything it keeps, so frame may be reused once decode returns.
func (d *streamDecoder) decode(frame []byte) (Message, error) {
	if d.typeDefs += countTypeDefs(frame); d.typeDefs > maxTypeDefs {
		return Message{}, errTypeDefCap
	}
	d.r.Reset(frame)
	d.msg = Message{} // gob leaves fields the sender omitted as zero untouched
	if err := d.dec.Decode(&d.msg); err != nil {
		return Message{}, fmt.Errorf("transport: decode message: %w", err)
	}
	if d.r.Len() != 0 {
		return Message{}, fmt.Errorf("transport: %d trailing bytes in frame", d.r.Len())
	}
	if d.msg.Kind != KindPacket && d.msg.Kind != KindException {
		return Message{}, fmt.Errorf("transport: unknown message kind %d", d.msg.Kind)
	}
	return d.msg, nil
}

var errTypeDefCap = fmt.Errorf("transport: peer sent more than %d type definitions", maxTypeDefs)

// countTypeDefs walks the gob messages in one frame — each a uint byte count
// followed by that many bytes, which open with a signed type id — and
// returns how many define a type (negative id). It stops at a malformed
// header; Decode then fails on the same bytes.
func countTypeDefs(frame []byte) (defs int) {
	for len(frame) > 0 {
		size, n := gobUint(frame)
		if n == 0 || size > uint64(len(frame)-n) {
			break
		}
		id, m := gobUint(frame[n : n+int(size)])
		if m == 0 {
			break
		}
		defs += int(id & 1) // gob keeps an integer's sign in bit 0
		frame = frame[n+int(size):]
	}
	return defs
}

// gobUint decodes gob's unsigned integer at the head of b and returns it
// with its encoded width, 0 when malformed: a byte below 128 is the value;
// otherwise the byte is the negated count of big-endian bytes that follow.
func gobUint(b []byte) (v uint64, width int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	w := -int(int8(b[0]))
	if w > 8 || len(b) <= w {
		return 0, 0
	}
	for _, c := range b[1 : 1+w] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + w
}

// Encode serializes m as the first frame's payload of a fresh stream: type
// descriptors included, so Decode can read it alone. Connections pay this
// cost once, not per message.
func Encode(m Message) ([]byte, error) {
	e := newStreamEncoder()
	if _, err := e.appendFrame(m); err != nil {
		return nil, err
	}
	return e.buf.Bytes()[4:], nil
}

// Decode deserializes a blob produced by Encode.
func Decode(b []byte) (Message, error) {
	return newStreamDecoder().decode(b)
}
