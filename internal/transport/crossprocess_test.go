package transport_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/builtin"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/pipeline"
	. "github.com/gates-middleware/gates/internal/transport"
	"github.com/gates-middleware/gates/internal/workload"
)

// TestCrossProcessCountSamps runs the distributed count-samps application
// split across two engines joined by real TCP — the gates-node deployment
// shape — and checks the query result survives the hop: source+summarizer
// on the "edge" engine, egress over the wire, ingress+merger on the
// "central" engine.
func TestCrossProcessCountSamps(t *testing.T) {
	builtin.RegisterWireTypes()
	stream := workload.Take(workload.NewZipf(77, 1.5, 50_000), 20_000)
	truth := workload.Counts(stream)
	cost := countsamps.DefaultCostModel()
	cost.SummaryPerItem = 0
	cost.MergePerEntry = 0

	// Central engine: TCP ingress -> merger.
	ingress := NewIngress(1, 64)
	var excMu sync.Mutex
	excs := 0
	ingress.OnException = func(adapt.Exception) {
		excMu.Lock()
		excs++
		excMu.Unlock()
	}
	srv, err := Listen("127.0.0.1:0", ingress.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	central := pipeline.New(clock.NewScaled(5000))
	in, _ := central.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{})
	merger := &countsamps.SummaryMerger{Cost: cost}
	ms, _ := central.AddProcessorStage("merge", 0, merger, pipeline.StageConfig{})
	if err := central.Connect(in, ms, nil); err != nil {
		t.Fatal(err)
	}
	centralDone := make(chan error, 1)
	go func() { centralDone <- central.Run(context.Background()) }()

	// Edge engine: stream -> summarizer -> TCP egress.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	edge := pipeline.New(clock.NewScaled(5000))
	src, _ := edge.AddSourceStage("stream", 0, &countsamps.StreamSource{
		Values: stream, Batch: 25, ItemWireSize: 8,
	}, pipeline.StageConfig{})
	sum, _ := edge.AddProcessorStage("summarize", 0, countsamps.NewSummarizer(countsamps.SummarizerConfig{
		Cost: cost, SummarySize: 100, Seed: 3,
	}), pipeline.StageConfig{})
	eg, _ := edge.AddProcessorStage("egress", 0, NewEgress(cli), pipeline.StageConfig{})
	edge.Connect(src, sum, nil)
	edge.Connect(sum, eg, nil)
	if err := edge.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-centralDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("central engine never finished")
	}

	acc := metrics.TopKAccuracy(truth, merger.TopK(10), 10)
	if acc.Membership < 0.8 {
		t.Fatalf("cross-process accuracy collapsed: %v", acc)
	}
	if merger.Sources() != 1 {
		t.Fatalf("merger saw %d sources, want 1", merger.Sources())
	}
}

// TestExceptionCrossesWireUpstream verifies the control plane: an exception
// sent by the downstream host reaches the upstream stage's controller.
func TestExceptionCrossesWireUpstream(t *testing.T) {
	received := make(chan adapt.Exception, 1)
	ingress := NewIngress(1, 8)
	ingress.OnException = func(e adapt.Exception) { received <- e }
	srv, err := Listen("127.0.0.1:0", ingress.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(ExceptionMessage(adapt.ExceptionOverload)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-received:
		if e != adapt.ExceptionOverload {
			t.Fatalf("received %v, want overload", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exception never crossed the wire")
	}
}
