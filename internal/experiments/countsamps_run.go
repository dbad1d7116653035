package experiments

import (
	"fmt"
	"time"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/service"
)

// csMode selects the count-samps application version.
type csMode int

const (
	csCentralized csMode = iota // forward raw items, count centrally
	csDistributed               // fixed-size summaries at each source
	csAdaptive                  // middleware-tuned summary size
)

// csParams configures one count-samps run.
type csParams struct {
	cfg         Config
	mode        csMode
	summarySize int   // fixed n for csDistributed
	bandwidth   int64 // source->central link bandwidth
	trials      int   // sketch-seed trials averaged (default 1)
	sources     int   // sub-stream count (default 4, the paper's setup)
}

func (p csParams) srcCount() int {
	if p.sources < 1 {
		return 4
	}
	return p.sources
}

// csResult is one run's measurements.
type csResult struct {
	// Elapsed is the virtual execution time.
	Elapsed time.Duration
	// Acc is the top-10 accuracy against the merged ground truth.
	Acc metrics.Accuracy
	// FinalSummarySize is the adaptive parameter's last value (adaptive
	// runs only; averaged over the four sources).
	FinalSummarySize float64
	// NetworkBytes is the total volume carried source->central.
	NetworkBytes int64
}

// runCountSamps measures one count-samps configuration, averaging over
// sketch-seed trials: the counting-samples sketch is randomized, a borderline
// member of the true top-10 can fall either way in a single run, and the
// paper's Figure 5 reports *average* performance and accuracy. Trials are
// independent full-stack runs (each builds its own clock, fabric, and
// engine), so they execute on the Config's worker pool; results land in
// trial order and aggregate identically at any parallelism.
func runCountSamps(p csParams) (*csResult, error) {
	trials := p.trials
	if trials < 1 {
		trials = 1
	}
	results := make([]*csResult, trials)
	err := forEach(p.cfg.parallelism(), trials, func(trial int) error {
		r, err := runCountSampsOnce(p, int64(trial))
		if err != nil {
			return err
		}
		results[trial] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var agg csResult
	for _, r := range results {
		agg.Elapsed += r.Elapsed
		agg.Acc.Membership += r.Acc.Membership
		agg.Acc.Frequency += r.Acc.Frequency
		agg.FinalSummarySize += r.FinalSummarySize
		agg.NetworkBytes += r.NetworkBytes
	}
	agg.Elapsed /= time.Duration(trials)
	agg.Acc.Membership /= float64(trials)
	agg.Acc.Frequency /= float64(trials)
	agg.FinalSummarySize /= float64(trials)
	agg.NetworkBytes /= int64(trials)
	return &agg, nil
}

// runCountSampsOnce deploys and executes one count-samps configuration
// through the full middleware stack and measures it.
func runCountSampsOnce(p csParams, trial int64) (*csResult, error) {
	m := p.srcCount()
	streams, truth := zipfStreams(p.cfg.seed(), m, p.cfg.items())

	// Grid: one stream-hosting node per sub-stream and a central node,
	// with the experiment's bandwidth on every cross-node link (the
	// paper's "each of these machines was connected to a central
	// machine").
	f, err := newFabric(p.cfg.scale(2000), append(streamNodes(m, 2), centralNode)...)
	if err != nil {
		return nil, err
	}
	f.net.SetDefaultLink(netsim.LinkConfig{Bandwidth: p.bandwidth, Quantum: time.Second})

	seed := p.cfg.seed() + trial*104729
	rawCounter := &countsamps.RawCounter{Cost: countsamps.DefaultCostModel(), Seed: seed}
	merger := f.registerCountSamps(streams, func(inst int) countsamps.SummarizerConfig {
		c := summarizerConfig(seed)(inst)
		c.SummarySize = p.summarySize
		c.Adaptive = p.mode == csAdaptive
		return c
	})
	f.processor("countsamps/raw", func(int) pipeline.Processor { return rawCounter })

	tuning := func(stageID string, _ int) pipeline.StageConfig {
		if stageID == "stream" {
			return pipeline.StageConfig{DisableAdaptation: true, ComputeQuantum: time.Second}
		}
		capacity := 50
		if stageID == "central" {
			capacity = 200
		}
		return pipeline.StageConfig{
			QueueCapacity: capacity, AdaptInterval: 2 * time.Second, AdjustEvery: 2, ComputeQuantum: time.Second,
		}
	}
	app, err := f.launch(countSampsConfig(p.mode, m), tuning, nil)
	if err != nil {
		return nil, err
	}
	if err := app.Wait(); err != nil {
		return nil, err
	}

	res := &csResult{Elapsed: f.elapsed(), NetworkBytes: f.net.TotalBytes()}
	switch p.mode {
	case csCentralized:
		res.Acc = metrics.TopKAccuracy(truth, rawCounter.TopK(10), 10)
	default:
		res.Acc = metrics.TopKAccuracy(truth, merger.TopK(10), 10)
	}
	if p.mode == csAdaptive {
		var sum float64
		n := 0
		for _, st := range app.Stages["summarize"] {
			if param, ok := st.Controller().Param("summary-size"); ok {
				sum += param.Value()
				n++
			}
		}
		if n > 0 {
			res.FinalSummarySize = sum / float64(n)
		}
	}
	return res, nil
}

// countSampsConfig builds the application descriptor for a version — the
// XML the paper's application developer would write.
func countSampsConfig(mode csMode, sources int) *service.AppConfig {
	near := make([]string, sources)
	for i := range near {
		near[i] = fmt.Sprintf("stream-%d", i+1)
	}
	cfg := &service.AppConfig{
		Name: "count-samps",
		Stages: []service.StageDef{{
			ID: "stream", Code: "countsamps/stream", Source: true,
			Instances: sources, NearSources: near,
		}},
	}
	if mode == csCentralized {
		cfg.Stages = append(cfg.Stages, service.StageDef{
			ID: "central", Code: "countsamps/raw",
			Requirement: service.ReqDef{MinCPU: 2},
		})
		cfg.Connections = []service.ConnDef{{From: "stream", To: "central"}}
		return cfg
	}
	cfg.Stages = append(cfg.Stages,
		service.StageDef{
			ID: "summarize", Code: "countsamps/summarize",
			Instances: sources, NearSources: near,
		},
		service.StageDef{
			ID: "central", Code: "countsamps/merge",
			Requirement: service.ReqDef{MinCPU: 2},
		},
	)
	cfg.Connections = []service.ConnDef{
		{From: "stream", To: "summarize", Fanout: service.FanoutPairwise},
		{From: "summarize", To: "central"},
	}
	return cfg
}
