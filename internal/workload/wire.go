package workload

import "github.com/gates-middleware/gates/internal/wire"

// AppendValueCounts appends a (value, count) list in the wire format: its
// length, then each pair as a zig-zag varint and a float64. Summaries and
// site reports both carry one.
func AppendValueCounts(b []byte, vcs []ValueCount) []byte {
	b = wire.AppendUint(b, uint64(len(vcs)))
	for _, vc := range vcs {
		b = wire.AppendFloat64(wire.AppendInt(b, vc.Value), vc.Count)
	}
	return b
}

// ReadValueCounts reads a list written by AppendValueCounts into a fresh
// slice; a zero-length list is nil.
func ReadValueCounts(r *wire.Reader) []ValueCount {
	n := r.Count(9) // a pair is at least one varint byte and eight float bytes
	if n == 0 {
		return nil
	}
	vcs := make([]ValueCount, n)
	for i := range vcs {
		vcs[i] = ValueCount{Value: r.Int(), Count: r.Float64()}
	}
	return vcs
}
