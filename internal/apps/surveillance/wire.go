package surveillance

import "github.com/gates-middleware/gates/internal/wire"

// AppendWire implements transport.WireValue: Camera, Seq, Bytes, Objects.
func (f *Frame) AppendWire(b []byte) []byte {
	b = wire.AppendInt(wire.AppendInt(wire.AppendInt(b, f.Camera), f.Seq), f.Bytes)
	return wire.AppendInts(b, f.Objects)
}

// DecodeWire implements transport.WireValue.
func (f *Frame) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*f = Frame{Camera: r.Int(), Seq: r.Int(), Bytes: r.Int(), Objects: r.Ints()}
	return r.Done()
}

// AppendWire implements transport.WireValue: Camera, Seq, Objects.
func (d *Detections) AppendWire(b []byte) []byte {
	return wire.AppendInts(wire.AppendInt(wire.AppendInt(b, d.Camera), d.Seq), d.Objects)
}

// DecodeWire implements transport.WireValue.
func (d *Detections) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*d = Detections{Camera: r.Int(), Seq: r.Int(), Objects: r.Ints()}
	return r.Done()
}
