package tieredfilter

import "github.com/gates-middleware/gates/internal/wire"

// AppendWire implements transport.WireValue: Detector, then the events'
// count and each event's ID, Energy, Quality and Signal.
func (eb *EventBatch) AppendWire(b []byte) []byte {
	b = wire.AppendUint(wire.AppendInt(b, eb.Detector), uint64(len(eb.Events)))
	for _, e := range eb.Events {
		b = wire.AppendFloat64(wire.AppendFloat64(wire.AppendUint(b, e.ID), e.Energy), e.Quality)
		b = wire.AppendBool(b, e.Signal)
	}
	return b
}

// DecodeWire implements transport.WireValue.
func (eb *EventBatch) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*eb = EventBatch{Detector: r.Int()}
	if n := r.Count(18); n > 0 { // a varint byte, two floats, a bool
		eb.Events = make([]Event, n)
	}
	for i := range eb.Events {
		eb.Events[i] = Event{ID: r.Uint(), Energy: r.Float64(), Quality: r.Float64(), Signal: r.Bool()}
	}
	return r.Done()
}
