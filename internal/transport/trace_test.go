package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// TestCodecTraceContextRoundTrip checks the trace context — lineage birth
// time, trace id, hop count — survives Encode/Decode unchanged.
func TestCodecTraceContextRoundTrip(t *testing.T) {
	birth := time.Date(2000, 1, 1, 0, 0, 3, 500, time.UTC)
	pkt := &pipeline.Packet{Seq: 9, Birth: birth, TraceID: 0xDEADBEEF, TraceHops: 2}
	b, err := Encode(PacketMessage(pkt))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var got pipeline.Packet
	m.PacketInto(&got)
	if !got.Birth.Equal(birth) || got.TraceID != 0xDEADBEEF || got.TraceHops != 2 {
		t.Fatalf("trace context mangled: birth=%v id=%x hops=%d", got.Birth, got.TraceID, got.TraceHops)
	}
}

// TestTraceContextCrossesTCP sends a traced and an untraced packet through a
// real TCP frame into an Ingress-fed engine and inspects what a downstream
// processor consumes: the traced packet keeps its birth timestamp and trace
// id with the hop count up by one (the ingress counts the node crossing),
// while the untraced packet gets rooted locally rather than inheriting
// anything.
func TestTraceContextCrossesTCP(t *testing.T) {
	birth := time.Date(2000, 1, 1, 0, 0, 1, 0, time.UTC)
	clk := clock.NewScaled(1000)
	ob := obs.New(clk, obs.Config{SampleEvery: 1})

	ingress := NewIngress(1, 16)
	ingress.Tracer = ob.Tracer
	srv, err := Listen("127.0.0.1:0", ingress.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	eng := pipeline.New(clk)
	eng.SetObservability(ob)
	inSt, _ := eng.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{DisableAdaptation: true})
	var mu sync.Mutex
	var got []pipeline.Packet
	rec := &tracingCollector{mu: &mu, out: &got}
	recSt, _ := eng.AddProcessorStage("record", 0, rec, pipeline.StageConfig{DisableAdaptation: true})
	if err := eng.Connect(inSt, recSt, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	traced := &pipeline.Packet{Seq: 1, Birth: birth, TraceID: 42, TraceHops: 1}
	for _, pkt := range []*pipeline.Packet{traced, {Seq: 2}, {Final: true}} {
		if err := cli.Send(PacketMessage(pkt)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine never finished")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("downstream consumed %d packets, want 2", len(got))
	}
	tp := got[0]
	if !tp.Birth.Equal(birth) {
		t.Fatalf("traced birth = %v, want the remote source's %v", tp.Birth, birth)
	}
	if tp.TraceID != 42 {
		t.Fatalf("trace id = %d, want 42", tp.TraceID)
	}
	if tp.TraceHops != 2 {
		t.Fatalf("trace hops = %d, want 2 (one crossing counted at ingress)", tp.TraceHops)
	}

	// The untraced packet must not inherit the remote context: the local
	// ingress (a source stage) roots a fresh lineage for it.
	up := got[1]
	if up.Birth.IsZero() || up.Birth.Equal(birth) {
		t.Fatalf("untraced birth = %v, want a fresh local timestamp", up.Birth)
	}
	if up.TraceID == 42 {
		t.Fatal("untraced packet inherited the traced packet's id")
	}
	if up.TraceHops != 0 {
		t.Fatalf("untraced hops = %d, want 0", up.TraceHops)
	}

	// The cross-node span tree kept the propagated context: an
	// "ingress.emit" span recorded under trace 42 at hop 2.
	for _, sp := range ob.Tracer.Spans() {
		if sp.Name == "ingress.emit" && sp.TraceID == 42 && sp.Hop == 2 {
			return
		}
	}
	t.Fatal("no ingress.emit span carries the propagated trace context")
}

// tracingCollector records every packet it consumes.
type tracingCollector struct {
	mu  *sync.Mutex
	out *[]pipeline.Packet
}

func (c *tracingCollector) Init(*pipeline.Context) error { return nil }
func (c *tracingCollector) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	c.mu.Lock()
	*c.out = append(*c.out, *pkt)
	c.mu.Unlock()
	return nil
}
func (c *tracingCollector) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }
