package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// ConstrictionResult is the attribution-engine validation experiment: a
// pipeline with one deliberately slow stage, run to completion, then handed
// to obs.Attribution — which must name the injected bottleneck.
type ConstrictionResult struct {
	// Items is how many packets the source pushed through the constriction.
	Items int `json:"items"`
	// SleepPerPacket is the wall-clock service time injected into the slow
	// stage.
	SleepPerPacket time.Duration `json:"sleepPerPacket"`
	// Expected and Named are the injected and attributed bottleneck stage
	// ids; the experiment passes when they match.
	Expected string `json:"expected"`
	Named    string `json:"named"`
	// Report is the full ranked verdict the engine produced.
	Report *obs.AttributionReport `json:"report"`
}

// constrictSource emits n packets of wire bytes each.
type constrictSource struct {
	n    int
	wire int
}

func (s *constrictSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.Emit(pipeline.NewPacket(nil, 0, s.wire)); err != nil {
			return err
		}
	}
	return nil
}

// constrictProc burns real wall time per packet, then forwards it — the
// deterministic slow stage, and with a zero sleep the plain relay. Wall, not
// virtual: the attribution engine's stall counters are wall-clock, so the
// injected service time must be too.
type constrictProc struct{ sleep time.Duration }

func (constrictProc) Init(*pipeline.Context) error { return nil }
func (p constrictProc) Process(_ *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	time.Sleep(p.sleep)
	return out.Emit(pkt)
}
func (constrictProc) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// discardSink consumes packets.
type discardSink struct{}

func (discardSink) Init(*pipeline.Context) error                                         { return nil }
func (discardSink) Process(*pipeline.Context, *pipeline.Packet, *pipeline.Emitter) error { return nil }
func (discardSink) Finish(*pipeline.Context, *pipeline.Emitter) error                    { return nil }

// ExpConstriction runs src → relay → constrict → sink with small input
// buffers and a slow constrict stage, then asks the attribution engine who
// the bottleneck is. The expected signature: producers park on constrict's
// full input ring (high inbound stall), constrict itself never blocks
// emitting (the sink is fast, so low outbound stall), and relay merely
// relays pressure (high inbound AND high outbound stall) — so constrict
// must win the inbound-minus-outbound ranking.
func ExpConstriction(cfg Config) (*ConstrictionResult, error) {
	items := 4000
	if cfg.Quick {
		items = 1500
	}
	const sleep = 100 * time.Microsecond

	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: -1})
	e := pipeline.New(clk)
	e.SetObservability(ob)
	e.SetDefaultBatchSize(16)

	stageCfg := func(capacity int) pipeline.StageConfig {
		return pipeline.StageConfig{DisableAdaptation: true, QueueCapacity: capacity}
	}
	src, err := e.AddSourceStage("src", 0, &constrictSource{n: items, wire: 64}, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		return nil, err
	}
	relay, err := e.AddProcessorStage("relay", 0, constrictProc{}, stageCfg(64))
	if err != nil {
		return nil, err
	}
	constrict, err := e.AddProcessorStage("constrict", 0, constrictProc{sleep: sleep}, stageCfg(64))
	if err != nil {
		return nil, err
	}
	sink, err := e.AddProcessorStage("sink", 0, discardSink{}, stageCfg(1024))
	if err != nil {
		return nil, err
	}
	for _, hop := range [][2]*pipeline.Stage{{src, relay}, {relay, constrict}, {constrict, sink}} {
		if err := e.Connect(hop[0], hop[1], nil); err != nil {
			return nil, err
		}
	}
	if err := e.Run(context.Background()); err != nil {
		return nil, err
	}

	// One-shot epoch: the engine's remembered counters start at zero, so
	// the deltas are the whole run's totals against the wall time since
	// the bundle was built — exactly the run we just finished.
	report := ob.Attr().ObserveRegistry(ob.Registry)
	res := &ConstrictionResult{
		Items:          items,
		SleepPerPacket: sleep,
		Expected:       "constrict",
		Report:         report,
	}
	if len(report.Verdicts) > 0 && report.Verdicts[0].Bottleneck {
		res.Named = report.Verdicts[0].Stage
	}
	return res, nil
}

// Render prints the ranked verdicts and the pass/fail attribution line. The
// "bottleneck: <stage>" line is what scripts/ci.sh greps for.
func (r *ConstrictionResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Constriction: %d items through a %s/packet slow stage (expected bottleneck: %s)\n",
		r.Items, r.SleepPerPacket, r.Expected)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tinbound\temit\tpop\tscore\tverdict")
	for _, v := range r.Report.Verdicts {
		verdict := ""
		if v.Bottleneck {
			verdict = "BOTTLENECK"
		}
		fmt.Fprintf(tw, "%s/%s\t%d%%\t%d%%\t%d%%\t%+.2f\t%s\n",
			v.Stage, v.Instance,
			int(float64(v.InboundStallFrac)*100+0.5),
			int(float64(v.EmitStallFrac)*100+0.5),
			int(float64(v.PopStallFrac)*100+0.5),
			float64(v.Score), verdict)
	}
	tw.Flush()
	fmt.Fprintf(w, "%s\n", r.Report.Summary)
	if r.Named == "" {
		fmt.Fprintln(w, "bottleneck: NONE NAMED (attribution failed)")
	} else {
		fmt.Fprintf(w, "bottleneck: %s (expected %s)\n", r.Named, r.Expected)
	}
}
