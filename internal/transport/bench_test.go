package transport

import (
	"sync/atomic"
	"testing"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/builtin"
	"github.com/gates-middleware/gates/internal/workload"
)

// benchMessages are the codec rung's two message shapes: "ints" is the
// bench ladder's frame (a packet whose Value is 128 Zipf-distributed words),
// "summary" the struct-valued packet real gates-node count-samps traffic
// sends.
func benchMessages() []benchMessage {
	builtin.RegisterWireTypes()
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

// BenchmarkStreamEncode is the steady state of a connection's send side: the
// descriptors went out with the first frame.
func BenchmarkStreamEncode(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			enc := newStreamEncoder()
			n, err := enc.appendFrame(m)
			if err != nil {
				b.Fatal(err)
			}
			enc.buf.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, _ = enc.appendFrame(m)
				enc.buf.Reset()
			}
			b.SetBytes(int64(n + 4))
		})
	}
}

// BenchmarkStreamDecode is the steady state of a connection's receive side:
// the decode engine was compiled on the first frame.
func BenchmarkStreamDecode(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			enc, dec := newStreamEncoder(), newStreamDecoder()
			enc.appendFrame(m)
			if _, err := dec.decode(enc.buf.Bytes()[4:]); err != nil {
				b.Fatal(err)
			}
			enc.buf.Reset()
			enc.appendFrame(m)
			frame := enc.buf.Bytes()[4:] // a steady-state frame: replayable, it defines nothing
			b.SetBytes(int64(len(frame) + 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = dec.decode(frame)
			}
		})
	}
}

// BenchmarkOneShotEncode is what a connection's first frame costs: a fresh
// encoder and the type descriptors.
func BenchmarkOneShotEncode(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneShotDecode is what a connection's first frame costs to read: a
// fresh decoder compiling its engine for the descriptors it is sent.
func BenchmarkOneShotDecode(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			frame, err := Encode(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoopbackSendBatch16 is the whole TCP rung, per message: 16-frame
// batches through Client.SendBatch into a Server that decodes and discards,
// closed loop under TCP flow control, timed until the last one is handled.
func BenchmarkLoopbackSendBatch16(b *testing.B) {
	for _, bm := range benchMessages() {
		m := bm.m
		b.Run(bm.name, func(b *testing.B) {
			var handled atomic.Int64
			done := make(chan struct{})
			want := int64((b.N + 15) / 16 * 16)
			srv, err := Listen("127.0.0.1:0", func(Message) {
				if handled.Add(1) == want {
					close(done)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cli, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			batch := make([]Message, 16)
			for i := range batch {
				batch[i] = m
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 16 {
				if err := cli.SendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}
