package countsamps

import (
	"github.com/gates-middleware/gates/internal/wire"
	"github.com/gates-middleware/gates/internal/workload"
)

// AppendWire implements transport.WireValue: SourceInstance, Span, Entries.
func (sm *Summary) AppendWire(b []byte) []byte {
	b = wire.AppendUint(wire.AppendInt(b, sm.SourceInstance), sm.Span)
	return workload.AppendValueCounts(b, sm.Entries)
}

// DecodeWire implements transport.WireValue.
func (sm *Summary) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*sm = Summary{SourceInstance: r.Int(), Span: r.Uint(), Entries: workload.ReadValueCounts(&r)}
	return r.Done()
}
