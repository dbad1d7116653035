package compsteer

import "github.com/gates-middleware/gates/internal/wire"

// AppendWire implements transport.WireValue: Region, Values.
func (mc *MeshChunk) AppendWire(b []byte) []byte {
	return wire.AppendFloat64s(wire.AppendInt(b, mc.Region), mc.Values)
}

// DecodeWire implements transport.WireValue.
func (mc *MeshChunk) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*mc = MeshChunk{Region: r.Int(), Values: r.Float64s()}
	return r.Done()
}

// AppendWire implements transport.WireValue: Region, Severity.
func (sc *SteeringCommand) AppendWire(b []byte) []byte {
	return wire.AppendFloat64(wire.AppendInt(b, sc.Region), sc.Severity)
}

// DecodeWire implements transport.WireValue.
func (sc *SteeringCommand) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*sc = SteeringCommand{Region: r.Int(), Severity: r.Float64()}
	return r.Done()
}
