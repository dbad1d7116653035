// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), the ablation studies from DESIGN.md, and microbenchmarks of
// the hot paths. The figure benchmarks run the experiments in Quick mode so
// `go test -bench=.` completes in well under a minute; run
// cmd/gates-experiments for the full-size artifacts recorded in
// EXPERIMENTS.md. Custom metrics attach each benchmark's scientific outcome
// (virtual seconds, accuracy, converged sampling factors) to its output.
package gates_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/experiments"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/workload"
)

func quickCfg() experiments.Config { return experiments.Config{Quick: true} }

// BenchmarkFigure5 regenerates the §5.2 table: centralized vs distributed
// count-samps execution time and accuracy.
func BenchmarkFigure5(b *testing.B) {
	var cenS, disS, cenA, disA float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		cen, dis := res.Centralized(), res.Distributed()
		cenS, disS, cenA, disA = cen.Seconds, dis.Seconds, cen.Accuracy, dis.Accuracy
	}
	b.ReportMetric(cenS, "centralized-vs")
	b.ReportMetric(disS, "distributed-vs")
	b.ReportMetric(cenA, "centralized-acc")
	b.ReportMetric(disA, "distributed-acc")
}

// BenchmarkFigure6 regenerates the §5.3 execution-time sweep (five versions
// across four bandwidths). The reported metrics summarize the corners.
func BenchmarkFigure6(b *testing.B) {
	var res *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure67(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, _ := res.Cell("40", 1_000)
	hi, _ := res.Cell("160", 1_000)
	ad, _ := res.Cell("adaptive", 1_000)
	b.ReportMetric(lo.Seconds, "s40@1KB-vs")
	b.ReportMetric(hi.Seconds, "s160@1KB-vs")
	b.ReportMetric(ad.Seconds, "adaptive@1KB-vs")
}

// BenchmarkFigure7 regenerates the §5.3 accuracy sweep.
func BenchmarkFigure7(b *testing.B) {
	var res *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure67(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, _ := res.Cell("40", 1_000_000)
	hi, _ := res.Cell("160", 1_000_000)
	ad, _ := res.Cell("adaptive", 1_000_000)
	b.ReportMetric(lo.Accuracy, "s40-acc")
	b.ReportMetric(hi.Accuracy, "s160-acc")
	b.ReportMetric(ad.Accuracy, "adaptive-acc")
}

// BenchmarkFigure8 regenerates the §5.4 processing-constraint convergence
// plot; the metrics are the converged sampling factors (paper: 1, 1, .65,
// .55, .31).
func BenchmarkFigure8(b *testing.B) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure8(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		b.ReportMetric(s.Converged, "r@"+sanitize(s.Label))
	}
}

// BenchmarkFigure9 regenerates the §5.5 network-constraint convergence plot
// (paper: ~1, 1, .5, .25, .125).
func BenchmarkFigure9(b *testing.B) {
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure9(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		b.ReportMetric(s.Converged, "r@"+sanitize(s.Label))
	}
}

func sanitize(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		if r == ' ' {
			continue
		}
		if r == '/' {
			r = 'p'
		}
		out = append(out, r)
	}
	return string(out)
}

// benchmarkAblation runs one ablation study and reports each variant's
// converged value.
func benchmarkAblation(b *testing.B, study func(experiments.Config) (*experiments.AblationResult, error)) {
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = study(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, row := range res.Rows {
		b.ReportMetric(row.Converged, fmt.Sprintf("r-variant%d", i))
	}
}

// BenchmarkAblationDownstreamSign compares the Equation 4 sign conventions
// (DESIGN.md substitution: the literal sign fails to track the sustainable
// rate).
func BenchmarkAblationDownstreamSign(b *testing.B) {
	benchmarkAblation(b, experiments.AblationDownstreamSign)
}

// BenchmarkAblationPhi2 compares the exponential and linear φ2 variants.
func BenchmarkAblationPhi2(b *testing.B) {
	benchmarkAblation(b, experiments.AblationPhi2)
}

// BenchmarkAblationWeights sweeps the (P1,P2,P3) load-factor weights.
func BenchmarkAblationWeights(b *testing.B) {
	benchmarkAblation(b, experiments.AblationWeights)
}

// BenchmarkAblationWindow sweeps the observation window W.
func BenchmarkAblationWindow(b *testing.B) {
	benchmarkAblation(b, experiments.AblationWindow)
}

// BenchmarkAblationCongestionPriority compares the congestion-priority
// gating against the ungated ΔP law.
func BenchmarkAblationCongestionPriority(b *testing.B) {
	benchmarkAblation(b, experiments.AblationCongestionPriority)
}

// --- Microbenchmarks: the middleware's hot paths in real time. ---

// BenchmarkSketchObserve measures the counting-samples ingest path.
func BenchmarkSketchObserve(b *testing.B) {
	vals := workload.Take(workload.NewZipf(1, 1.5, 50_000), 1<<16)
	s := countsamps.NewSketch(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(vals[i&(1<<16-1)])
	}
}

// BenchmarkSketchTopK measures the query path.
func BenchmarkSketchTopK(b *testing.B) {
	s := countsamps.NewSketch(240, 1)
	for _, v := range workload.Take(workload.NewZipf(1, 1.5, 50_000), 100_000) {
		s.Observe(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(10)
	}
}

// BenchmarkControllerObserve measures one adaptation-loop tick.
func BenchmarkControllerObserve(b *testing.B) {
	c := adapt.NewController(adapt.Defaults(200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(i % 200)
	}
}

// BenchmarkControllerAdjust measures one ΔP application.
func BenchmarkControllerAdjust(b *testing.B) {
	c := adapt.NewController(adapt.Defaults(200))
	c.Register(adapt.ParamSpec{
		Name: "r", Initial: 0.5, Min: 0, Max: 1, Step: 0.01,
		Direction: adapt.IncreaseSlowsProcessing,
	})
	c.Observe(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Adjust()
	}
}

// BenchmarkLinkTransfer measures the shaper bookkeeping on an unlimited
// link (no sleeping).
func BenchmarkLinkTransfer(b *testing.B) {
	l := netsim.NewLink(clock.NewManual(), netsim.LinkConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Transfer(1000)
	}
}

// BenchmarkPipelineThroughput measures end-to-end packets per second
// through a two-stage pipeline with no emulated costs.
func BenchmarkPipelineThroughput(b *testing.B) {
	e := pipeline.New(clock.NewManual())
	src, _ := e.AddSourceStage("src", 0, &benchSource{n: b.N}, pipeline.StageConfig{DisableAdaptation: true})
	sink, _ := e.AddProcessorStage("sink", 0, &benchSink{}, pipeline.StageConfig{
		DisableAdaptation: true, QueueCapacity: 1024,
	})
	if err := e.Connect(src, sink, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := e.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBatchSizeSweep runs the same two-stage pipeline at increasing
// stage batch sizes. batch=1 is the strict per-packet baseline (identical
// semantics to BenchmarkPipelineThroughput); larger batches amortize the
// queue lock, condvar wakeups, and emit coalescing across the batch.
func BenchmarkBatchSizeSweep(b *testing.B) {
	for _, batch := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			e := pipeline.New(clock.NewManual())
			e.SetDefaultBatchSize(batch)
			src, _ := e.AddSourceStage("src", 0, &benchSource{n: b.N}, pipeline.StageConfig{DisableAdaptation: true})
			sink, _ := e.AddProcessorStage("sink", 0, &benchSink{}, pipeline.StageConfig{
				DisableAdaptation: true, QueueCapacity: 1024,
			})
			if err := e.Connect(src, sink, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := e.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

type benchSource struct{ n int }

func (s *benchSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		pkt := out.GetPacket()
		pkt.WireSize = 64
		if err := out.Emit(pkt); err != nil {
			return err
		}
	}
	return nil
}

type benchSink struct{ n int }

func (s *benchSink) Init(*pipeline.Context) error { return nil }
func (s *benchSink) Process(*pipeline.Context, *pipeline.Packet, *pipeline.Emitter) error {
	s.n++
	return nil
}
func (s *benchSink) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// BenchmarkExtScalingSources measures the distributed speedup growing with
// the source count (the paper's §5.2 prediction).
func BenchmarkExtScalingSources(b *testing.B) {
	var res *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ExtScalingSources(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Speedup, fmt.Sprintf("speedup@%dsrc", row.Sources))
	}
}

// BenchmarkExtHierarchy measures the three-stage regional aggregation
// against the flat topology on a shared 2 KB/s WAN uplink.
func BenchmarkExtHierarchy(b *testing.B) {
	var res *experiments.HierarchyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ExtHierarchy(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].Seconds, "flat-vs")
	b.ReportMetric(res.Rows[1].Seconds, "hier-vs")
	b.ReportMetric(float64(res.Rows[0].WANBytes), "flat-wanB")
	b.ReportMetric(float64(res.Rows[1].WANBytes), "hier-wanB")
}

// BenchmarkAblationInterval sweeps the controller's observation interval.
func BenchmarkAblationInterval(b *testing.B) {
	benchmarkAblation(b, experiments.AblationInterval)
}
