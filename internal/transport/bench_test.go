package transport

import (
	"testing"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/workload"
)

// benchMessages are the codec rung's two message shapes: "ints" is the
// bench ladder's frame (a packet whose Value is 128 Zipf-distributed words),
// "summary" the struct-valued packet real gates-node count-samps traffic
// sends. (builtin imports this package, so the summary is registered here,
// under the tag builtin gives it: the external tests in this binary register
// it too.)
func benchMessages() []benchMessage {
	RegisterWireValue(16, func() WireValue { return new(countsamps.Summary) })
	vals := workload.Take(workload.NewZipf(20040607, 1.5, 50_000), 128)
	return []benchMessage{
		{"ints", Message{Kind: KindPacket, SourceStage: "src", Seq: 12345, WireSize: 1024, Value: vals}},
		{"summary", Message{Kind: KindPacket, SourceStage: "summarize", Seq: 12345, Items: 100, WireSize: 1632,
			Value: &countsamps.Summary{SourceInstance: 1, Span: 2500, Entries: workload.TopK(workload.Counts(vals), 100)}}},
	}
}

type benchMessage struct {
	name string
	m    Message
}

var benchSink Message

// BenchmarkStreamEncode is a connection's send side: one frame appended to
// the client's reused buffer.
func BenchmarkStreamEncode(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			buf, err := appendFrame(nil, m)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = appendFrame(buf[:0], m)
			}
		})
	}
}

// BenchmarkStreamDecode is a connection's receive side: one frame's payload
// through the connection's decoder.
func BenchmarkStreamDecode(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			frame, err := Encode(m)
			if err != nil {
				b.Fatal(err)
			}
			var dec decoder
			b.SetBytes(int64(len(frame) + 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = dec.decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
