package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/wire"
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
// exception. A packet's Value must be one of the built-in value types (see
// appendValue) or a WireValue registered with RegisterWireValue. Birth
// crosses as Unix nanoseconds: the instant survives, its zone and monotonic
// reading do not (compare with Equal), and it must lie in 1678–2262.
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

// WireValue is a packet payload that carries its own wire encoding: the
// application structs' side of the format (DESIGN.md §6). AppendWire appends
// the value's encoding to b. DecodeWire overwrites the value from exactly
// the bytes AppendWire produced: it must reject trailing bytes, keep no
// reference to b, and allocate nothing sized by a count it has not checked
// against len(b) — internal/wire's Reader does all three.
type WireValue interface {
	AppendWire(b []byte) []byte
	DecodeWire(b []byte) error
}

// Value tags: the byte ahead of a packet's value. Tags below firstWireTag
// belong to the types appendValue encodes itself.
const (
	tagNil = iota
	tagInt
	tagInt64
	tagUint64
	tagFloat64
	tagBool
	tagString
	tagInts
	tagFloat64s
	tagBytes
	firstWireTag = 16
)

// Packet flag bits: the byte after the kind. Unknown bits are rejected.
const (
	flagFinal  = 1 << iota
	flagBirth  // Birth follows WireSize
	flagTrace  // TraceID and TraceHops follow
	flagsKnown = flagFinal | flagBirth | flagTrace
)

// The registration table, filled at start-up: wireTags maps a payload's
// reflect.Type to its tag, wireNews a tag to the func() WireValue that makes
// an empty one to decode into.
var wireTags, wireNews sync.Map

// RegisterWireValue gives the type newValue returns the value tag it crosses
// the wire under; both ends of a connection must register the same pairs
// (builtin.RegisterWireTypes holds the built-in applications'). Repeating a
// registration is a no-op; a tag below 16, or a tag or type already paired
// differently, panics — the table is a program constant.
func RegisterWireValue(tag uint8, newValue func() WireValue) {
	t := reflect.TypeOf(newValue())
	old, known := wireTags.LoadOrStore(t, tag)
	_, taken := wireNews.LoadOrStore(tag, newValue)
	if tag < firstWireTag || known != taken || known && old != tag {
		panic(fmt.Sprintf("transport: cannot register %v as value tag %d", t, tag))
	}
}

// appendFrame appends one frame carrying m to b: the 4-byte length prefix,
// backfilled once the payload's size is known, then the payload. On failure
// (an unregistered Value type, a frame beyond MaxFrameSize) it returns b as
// it was: frames are self-contained, so nothing has to be unsaid and the
// caller may keep sending.
func appendFrame(b []byte, m Message) ([]byte, error) {
	start := len(b)
	out, err := appendMessage(append(b, 0, 0, 0, 0), m)
	n := len(out) - start - 4
	if err == nil && n > MaxFrameSize {
		err = fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if err != nil {
		return out[:start], err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// appendMessage appends m's payload encoding: the kind byte, then for an
// exception its varint, for a packet the flags, the header fields and the
// tagged value (DESIGN.md §6 has the table).
func appendMessage(b []byte, m Message) ([]byte, error) {
	switch m.Kind {
	case KindException:
		return wire.AppendInt(append(b, byte(KindException)), int(m.Exception)), nil
	case KindPacket:
	default:
		return b, fmt.Errorf("transport: unknown message kind %d", m.Kind)
	}
	var flags byte
	if m.Final {
		flags |= flagFinal
	}
	if !m.Birth.IsZero() {
		flags |= flagBirth
	}
	if m.TraceID != 0 || m.TraceHops != 0 {
		flags |= flagTrace
	}
	b = wire.AppendUint(append(b, byte(KindPacket), flags), uint64(len(m.SourceStage)))
	b = wire.AppendInt(append(b, m.SourceStage...), m.SourceInstance)
	b = wire.AppendInt(wire.AppendInt(wire.AppendUint(b, m.Seq), m.Items), m.WireSize)
	if flags&flagBirth != 0 {
		b = binary.AppendVarint(b, m.Birth.UnixNano())
	}
	if flags&flagTrace != 0 {
		b = append(wire.AppendUint(b, m.TraceID), m.TraceHops)
	}
	return appendValue(b, m.Value)
}

// appendValue appends v's tag and encoding.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int:
		return wire.AppendInt(append(b, tagInt), v), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), v), nil
	case uint64:
		return wire.AppendUint(append(b, tagUint64), v), nil
	case float64:
		return wire.AppendFloat64(append(b, tagFloat64), v), nil
	case bool:
		return wire.AppendBool(append(b, tagBool), v), nil
	case string:
		return append(wire.AppendUint(append(b, tagString), uint64(len(v))), v...), nil
	case []byte:
		return append(wire.AppendUint(append(b, tagBytes), uint64(len(v))), v...), nil
	case []int:
		return wire.AppendInts(append(b, tagInts), v), nil
	case []float64:
		return wire.AppendFloat64s(append(b, tagFloat64s), v), nil
	case WireValue:
		if tag, ok := wireTags.Load(reflect.TypeOf(v)); ok {
			return v.AppendWire(append(b, tag.(uint8))), nil
		}
	}
	return b, fmt.Errorf("transport: value type %T has no wire encoding (see RegisterWireValue)", v)
}

// decoder is the receiving half of one connection. Frames are self-contained;
// the only thing carried from one to the next is the last SourceStage string,
// so a connection fed by one stage allocates its name once.
type decoder struct{ stage string }

// decode parses one frame's payload, which must hold exactly one message.
// Everything the message keeps is copied out of frame, and nothing is
// allocated on the strength of a count until that many bytes are in hand.
func (d *decoder) decode(frame []byte) (Message, error) {
	r := wire.NewReader(frame)
	switch kind := MessageKind(r.Byte()); kind {
	case KindException:
		m := Message{Kind: KindException, Exception: adapt.Exception(r.Int())}
		return m, r.Done()
	case KindPacket:
	default:
		return Message{}, fmt.Errorf("transport: unknown message kind %d", kind)
	}
	flags := r.Byte()
	if flags&^flagsKnown != 0 {
		return Message{}, fmt.Errorf("transport: unknown packet flags %#x", flags)
	}
	m := Message{Kind: KindPacket, Final: flags&flagFinal != 0}
	if stage := r.Next(r.Count(1)); string(stage) != d.stage {
		d.stage = string(stage)
	}
	m.SourceStage = d.stage
	m.SourceInstance, m.Seq, m.Items, m.WireSize = r.Int(), r.Uint(), r.Int(), r.Int()
	if flags&flagBirth != 0 {
		m.Birth = time.Unix(0, r.Int64()).UTC()
	}
	if flags&flagTrace != 0 {
		m.TraceID, m.TraceHops = r.Uint(), r.Byte()
	}
	var err error
	m.Value, err = decodeValue(&r)
	return m, err
}

// decodeValue reads the tagged value that ends a packet frame. A decoded
// slice is freshly allocated — it belongs to the application from here on —
// and a zero-length one is nil.
func decodeValue(r *wire.Reader) (any, error) {
	var v any
	switch tag := r.Byte(); tag {
	case tagNil:
	case tagInt:
		v = r.Int()
	case tagInt64:
		v = r.Int64()
	case tagUint64:
		v = r.Uint()
	case tagFloat64:
		v = r.Float64()
	case tagBool:
		v = r.Bool()
	case tagString:
		v = string(r.Next(r.Count(1)))
	case tagBytes:
		v = append([]byte(nil), r.Next(r.Count(1))...)
	case tagInts:
		v = r.Ints()
	case tagFloat64s:
		v = r.Float64s()
	default:
		newValue, ok := wireNews.Load(tag)
		if !ok {
			return nil, fmt.Errorf("transport: unknown value tag %d", tag)
		}
		wv := newValue.(func() WireValue)()
		if err := wv.DecodeWire(r.Rest()); err != nil {
			return nil, fmt.Errorf("transport: decode value tag %d: %w", tag, err)
		}
		return wv, nil
	}
	return v, r.Done()
}

// oneShot is what a connection owns — a send buffer and a decoder — pooled so
// the exported Encode and Decode run the connection's code at its cost.
type oneShot struct {
	buf []byte
	dec decoder
}

var oneShots = sync.Pool{New: func() any { return new(oneShot) }}

// Encode serializes m as one frame's payload, exactly as a Client sends it.
func Encode(m Message) ([]byte, error) {
	o := oneShots.Get().(*oneShot)
	defer oneShots.Put(o)
	frame, err := appendFrame(o.buf[:0], m)
	o.buf = frame[:0]
	if err != nil {
		return nil, err
	}
	return bytes.Clone(frame[4:]), nil
}

// Decode parses one frame's payload, exactly as a connection's reader does.
func Decode(b []byte) (Message, error) {
	o := oneShots.Get().(*oneShot)
	defer oneShots.Put(o)
	return o.dec.decode(b)
}
