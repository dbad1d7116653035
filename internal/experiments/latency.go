package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// LatencySampleRates are the trace-sampling periods the latency experiment
// sweeps: 0 disables tracing entirely (the -trace-sample 0 configuration),
// 1 records every hot-path operation, and the rest are 1-in-N cadences
// around the default of 64.
var LatencySampleRates = []int{0, 1, 16, 64, 256}

// LatencyRow is one sampling rate's measurements.
type LatencyRow struct {
	// SampleEvery is the user-facing rate (0 = tracing disabled).
	SampleEvery int `json:"sampleEvery"`
	// NsPerItem is the wall-clock cost of moving one item through the
	// uncontended two-stage hot path with this much tracing attached.
	NsPerItem float64 `json:"nsPerItem"`
	// SpansStarted and SpansSampled are the tracer counters after the hot
	// run: started counts every operation as of each site's last sampled
	// span (so it trails by fewer than N a site), sampled the 1-in-N
	// cadence.
	SpansStarted uint64 `json:"spansStarted"`
	SpansSampled uint64 `json:"spansSampled"`
	// P50/P95/P99 are the sink's source-to-sink virtual latency quantiles
	// from the paced run, in seconds. Sampling rate must not move these:
	// latency is measured by histograms on every packet, not by traces.
	P50 float64 `json:"p50S"`
	P95 float64 `json:"p95S"`
	P99 float64 `json:"p99S"`
}

// LatencyResult is the latency-vs-sampling-rate study: what trace sampling
// costs on the wall clock, and what the end-to-end latency histograms report
// regardless of it.
type LatencyResult struct {
	// HotItems is the item count of each wall-clock overhead run.
	HotItems int `json:"hotItems"`
	// PacedItems is the item count of each virtual-latency run.
	PacedItems int          `json:"pacedItems"`
	Rows       []LatencyRow `json:"rows"`
}

// ExpLatency sweeps LatencySampleRates. Each rate gets two runs: a
// manual-clock hot run (no virtual pacing, so ns/item isolates the
// observability tax) and a scaled-clock paced run through a 10 KB/s link
// (so the end-to-end histograms see a real latency distribution shaped by
// transfer pacing and queueing).
func ExpLatency(cfg Config) (*LatencyResult, error) {
	hotItems, pacedItems := 200_000, 400
	if cfg.Quick {
		hotItems, pacedItems = 50_000, 200
	}
	res := &LatencyResult{HotItems: hotItems, PacedItems: pacedItems}
	for _, rate := range LatencySampleRates {
		row := LatencyRow{SampleEvery: rate}
		var err error
		if row.NsPerItem, row.SpansStarted, row.SpansSampled, err = latencyHotRun(rate, hotItems); err != nil {
			return nil, fmt.Errorf("latency: hot run sample=%d: %w", rate, err)
		}
		if row.P50, row.P95, row.P99, err = latencyPacedRun(cfg, rate, pacedItems); err != nil {
			return nil, fmt.Errorf("latency: paced run sample=%d: %w", rate, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// latencySource emits n packets of wire bytes each.
type latencySource struct {
	n    int
	wire int
}

func (s *latencySource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.Emit(pipeline.NewPacket(nil, 0, s.wire)); err != nil {
			return err
		}
	}
	return nil
}

// latencyRelay passes packets through unchanged, preserving their lineage.
type latencyRelay struct{}

func (latencyRelay) Init(*pipeline.Context) error { return nil }
func (latencyRelay) Process(_ *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	return out.Emit(pkt)
}
func (latencyRelay) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// latencySink consumes packets.
type latencySink struct{}

func (latencySink) Init(*pipeline.Context) error                                         { return nil }
func (latencySink) Process(*pipeline.Context, *pipeline.Packet, *pipeline.Emitter) error { return nil }
func (latencySink) Finish(*pipeline.Context, *pipeline.Emitter) error                    { return nil }

// latencyHotRun pushes items through an uncontended source→sink pipeline on
// a manual clock and returns wall nanoseconds per item plus the tracer's
// span counters.
func latencyHotRun(rate, items int) (nsPerItem float64, started, sampled uint64, err error) {
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: obs.SampleEveryFor(rate)})
	e := pipeline.New(clk)
	e.SetObservability(ob)
	e.SetDefaultBatchSize(16)
	src, err := e.AddSourceStage("src", 0, &latencySource{n: items, wire: 64}, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		return 0, 0, 0, err
	}
	sink, err := e.AddProcessorStage("sink", 0, latencySink{}, pipeline.StageConfig{
		DisableAdaptation: true, QueueCapacity: 1024,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if err := e.Connect(src, sink, nil); err != nil {
		return 0, 0, 0, err
	}
	startWall := time.Now()
	if err := e.Run(context.Background()); err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(startWall)
	started, sampled = ob.Tracer.Counts()
	return float64(elapsed.Nanoseconds()) / float64(items), started, sampled, nil
}

// latencyPacedRun drives packets through source→relay→sink with a 10 KB/s
// emulated link between relay and sink, and reads the sink's end-to-end
// virtual latency quantiles back out of the registry — the same numbers
// /metrics and /cluster expose.
func latencyPacedRun(cfg Config, rate, items int) (p50, p95, p99 float64, err error) {
	clk := clock.NewScaled(cfg.scale(2000))
	ob := obs.New(clk, obs.Config{SampleEvery: obs.SampleEveryFor(rate)})
	e := pipeline.New(clk)
	e.SetObservability(ob)
	src, err := e.AddSourceStage("src", 0, &latencySource{n: items, wire: 100}, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		return 0, 0, 0, err
	}
	relay, err := e.AddProcessorStage("relay", 0, latencyRelay{}, pipeline.StageConfig{
		DisableAdaptation: true, QueueCapacity: 64,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	sink, err := e.AddProcessorStage("sink", 0, latencySink{}, pipeline.StageConfig{
		DisableAdaptation: true, QueueCapacity: 64,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if err := e.Connect(src, relay, nil); err != nil {
		return 0, 0, 0, err
	}
	link := netsim.NewLink(clk, netsim.LinkConfig{Bandwidth: 10_000, Quantum: 50 * time.Millisecond})
	if err := e.Connect(relay, sink, link); err != nil {
		return 0, 0, 0, err
	}
	if err := e.Run(context.Background()); err != nil {
		return 0, 0, 0, err
	}
	labels := sink.ObsLabels()
	q := func(qv float64) float64 {
		v, _ := ob.Registry.HistogramQuantile(obs.MetricE2ELatency, labels, qv)
		return v
	}
	return q(0.50), q(0.95), q(0.99), nil
}

// Render prints the sweep as a table.
func (r *LatencyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Latency vs trace sampling (%d hot items, %d paced items per rate)\n", r.HotItems, r.PacedItems)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "sample\tns/item\tspans started\tspans sampled\te2e p50\te2e p95\te2e p99")
	for _, row := range r.Rows {
		rateLabel := "off"
		if row.SampleEvery > 0 {
			rateLabel = fmt.Sprintf("1/%d", row.SampleEvery)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%.3gs\t%.3gs\t%.3gs\n",
			rateLabel, row.NsPerItem, row.SpansStarted, row.SpansSampled,
			row.P50, row.P95, row.P99)
	}
	tw.Flush()
}
