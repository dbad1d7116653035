package intrusion

import (
	"math"

	"github.com/gates-middleware/gates/internal/wire"
	"github.com/gates-middleware/gates/internal/workload"
)

// AppendWire implements transport.WireValue: Site, then the records' count
// and each record's Src and Port as varints.
func (cb *ConnBatch) AppendWire(b []byte) []byte {
	b = wire.AppendUint(wire.AppendInt(b, cb.Site), uint64(len(cb.Records)))
	for _, c := range cb.Records {
		b = wire.AppendUint(wire.AppendUint(b, uint64(c.Src)), uint64(c.Port))
	}
	return b
}

// DecodeWire implements transport.WireValue.
func (cb *ConnBatch) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*cb = ConnBatch{Site: r.Int()}
	if n := r.Count(2); n > 0 {
		cb.Records = make([]Conn, n)
	}
	for i := range cb.Records {
		cb.Records[i] = Conn{Src: uint32(r.UintMax(math.MaxUint32)), Port: uint16(r.UintMax(math.MaxUint16))}
	}
	return r.Done()
}

// AppendWire implements transport.WireValue: Site, Span, Talkers.
func (r *SiteReport) AppendWire(b []byte) []byte {
	b = wire.AppendUint(wire.AppendInt(b, r.Site), r.Span)
	return workload.AppendValueCounts(b, r.Talkers)
}

// DecodeWire implements transport.WireValue.
func (r *SiteReport) DecodeWire(b []byte) error {
	in := wire.NewReader(b)
	*r = SiteReport{Site: in.Int(), Span: in.Uint(), Talkers: workload.ReadValueCounts(&in)}
	return in.Done()
}
